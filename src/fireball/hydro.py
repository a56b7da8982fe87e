"""Gaussian-profile fluid fields, conservation-law residuals, total energy.

The reduced ODEs of all four models come from one Gaussian profile with a
linear velocity field and a spatially uniform temperature.  Over the D
spatial axes a, with variance Q_a on axis a (the model's coordinates X, Y,
Z; the elliptic model's third axis carries X) and reference variance Q0_a:

    n   = n0 prod_a(Q0_a / Q_a) exp(-sum_a x_a^2 / 2 Q_a^2),
    v_a = (Qd_a / Q_a) x_a,
    T   = T0 prod_a(Q0_a / Q_a)^(2/D),   p = n T,   eps = (D/2) n T.

So 1d has T = T0 (X0/X)^2 and eps = n T / 2, and 2d has T = T0 X0 Y0/(X Y)
and eps = n T.  :func:`pde_residuals` substitutes these fields back into the
continuity, momentum and energy equations: spatial derivatives are analytic
(elementary Gaussians) and only the time derivatives use centered
differences across adjacent trajectory samples, so the residual along an
exact trajectory is pure time-discretization error.  Only the momentum
equation actually tests the equation of motion; continuity and the energy
law hold identically for any variance history, which the tests exploit as a
negative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, InsufficientDataError, QuadratureError
from .models import (ModelKind, PhysicalParams, State, axis_product,
                     check_state, reference_scales)
from .integrate import Trajectory

PROBE_LIMIT_SIGMA = 5.0
# Stencil rows per block in pde_residuals: bounds its (rows, probes, D)
# temporaries, which have 125 probes per row for the 3-axis models.
RESIDUAL_BLOCK_ROWS = 128
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FluidFields:
    """Local fluid quantities at one spatial point."""

    n: float
    v: np.ndarray
    T: float
    p: float
    eps: float


def _variance_ratio(params: PhysicalParams, qs, kind: ModelKind):
    """prod_a(Q0_a / Q_a) for dimensional variances ``qs`` (..., dim)."""
    return axis_product(params.variances(kind), kind) / axis_product(qs, kind)


def fields_at(params: PhysicalParams, state: State, point,
              kind: ModelKind) -> FluidFields:
    """Evaluate (n, v, T, p, eps) at a spatial point for a dimensional state.

    ``point`` has one coordinate per spatial axis (three for elliptic).
    """
    check_state(state, kind)
    D = kind.spatial_dim
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape != (D,):
        raise DomainError(f"point must have {D} coordinates, got {point.shape}")
    Q = state.q[list(kind.axes)]
    rate = state.qdot[list(kind.axes)] / Q
    ratio = float(_variance_ratio(params, state.q, kind))
    n = params.n0 * ratio * math.exp(-float(np.sum(point ** 2 / (2 * Q ** 2))))
    T = params.T0 * ratio ** (2.0 / D)
    return FluidFields(n=n, v=rate * point, T=T, p=n * T, eps=D / 2 * n * T)


def default_probe_points(kind: ModelKind) -> np.ndarray:
    """Tensor grid of {0, +-1, +-2} standard deviations per spatial axis."""
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    grids = np.meshgrid(*[offsets] * kind.spatial_dim, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


@dataclass(frozen=True)
class PdeResidualReport:
    """Residuals of the three conservation laws, per (interior sample, probe)."""

    times: np.ndarray
    probes: np.ndarray
    continuity: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.continuity)),
                         np.max(np.abs(self.momentum)),
                         np.max(np.abs(self.energy))))


def pde_residuals(params: PhysicalParams, traj: Trajectory, probe_points=None,
                  kind: ModelKind | None = None) -> PdeResidualReport:
    """Substitute the profile built on a (dimensionless) trajectory into the
    hydrodynamic equations.

    Probe points are given in units of the instantaneous standard deviation
    per spatial axis (must lie within +-5); each residual is evaluated at the
    fixed physical location selected by the stencil's center sample.
    """
    kind = traj.kind if kind is None else kind
    if kind is not traj.kind:
        raise DomainError(f"trajectory is {traj.kind.value!r}, not {kind.value!r}")
    if len(traj) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples for time differencing, got {len(traj)}")
    D = kind.spatial_dim

    probes = default_probe_points(kind) if probe_points is None \
        else np.atleast_2d(np.asarray(probe_points, dtype=float))
    if probes.shape[1] != D:
        raise DomainError(f"probe points must have {D} coordinates")
    if np.any(np.abs(probes) > PROBE_LIMIT_SIGMA):
        raise DomainError(f"probe points must lie within +-{PROBE_LIMIT_SIGMA} sigma")

    dt_grid = np.diff(traj.times)
    if np.max(np.abs(dt_grid - dt_grid[0])) > 1e-9 * dt_grid[0]:
        raise DomainError("pde_residuals requires a uniform sample grid")

    length, time_scale = reference_scales(params, kind)
    qs = traj.qs * length
    Q = qs[:, list(kind.axes)]
    rate = traj.qdots[:, list(kind.axes)] * (length / time_scale) / Q
    ratio = _variance_ratio(params, qs, kind)
    n_pref = params.n0 * ratio
    T = params.T0 * ratio ** (2.0 / D)
    dt = dt_grid[0] * time_scale
    m = params.m

    rows = len(traj) - 2
    continuity = np.empty((rows, len(probes)))
    momentum = np.empty_like(continuity)
    energy = np.empty_like(continuity)
    # Stencil center c = lo..hi-1 with neighbours c-1 / c+1; output row c-1.
    for lo in range(1, rows + 1, RESIDUAL_BLOCK_ROWS):
        hi = min(lo + RESIDUAL_BLOCK_ROWS, rows + 1)
        c, before, after = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
        x = probes[None, :, :] * Q[c, None, :]  # (rows, probes, D), fixed per stencil

        def density(s):
            return n_pref[s, None] * np.exp(-np.sum(x ** 2 / (2 * Q[s, None, :] ** 2), axis=-1))

        n_m, n_c, n_p = density(before), density(c), density(after)
        T_c = T[c, None]
        rate_c, Q_c = rate[c, None, :], Q[c, None, :]
        dn_dt = (n_p - n_m) / (2 * dt)
        deps_dt = D / 2 * (n_p * T[after, None] - n_m * T[before, None]) / (2 * dt)
        dv_dt = (rate[after] - rate[before])[:, None, :] / (2 * dt) * x

        div_nv = n_c * np.sum(rate_c * (1 - x ** 2 / Q_c ** 2), axis=-1)
        continuity[before] = dn_dt + div_nv
        res_m = dv_dt + rate_c ** 2 * x - T_c[..., None] / m * x / Q_c ** 2
        momentum[before] = np.max(np.abs(res_m), axis=-1)
        energy[before] = deps_dt + D / 2 * T_c * div_nv \
            + n_c * T_c * np.sum(rate[c], axis=-1)[:, None]

    return PdeResidualReport(times=traj.times[1:-1] * time_scale, probes=probes,
                             continuity=continuity, momentum=momentum,
                             energy=energy)


def _quadrature_pass(params: PhysicalParams, state: State, kind: ModelKind,
                     nodes: int, density_only: bool) -> float:
    """Gauss-Hermite integral of n m v^2/2 + eps (or just the density) over
    space, with nodes placed on the instantaneous Gaussian."""
    u, w = hermgauss(nodes)
    D = kind.spatial_dim
    Q = state.q[list(kind.axes)]
    Qd = state.qdot[list(kind.axes)]
    ratio = float(_variance_ratio(params, state.q, kind))
    # Nodes x_a = sqrt(2) Q_a u_a absorb the Gaussian into the weights; per
    # particle, eps / n = T D/2 and m v_a^2 / 2 = m Qd_a^2 u_a^2.
    integrand = np.full((nodes,) * D, 1.0 if density_only
                        else D / 2 * params.T0 * ratio ** (2.0 / D))
    if not density_only:
        for a in range(D):
            shape = [1] * D
            shape[a] = nodes
            integrand = integrand + (params.m * (Qd[a] * u) ** 2).reshape(shape)
    for _ in range(D):
        integrand = integrand @ w
    return params.n0 * ratio * float(np.prod(_SQRT2 * Q)) * float(integrand)


def _converged_quadrature(params, state, kind, nodes, density_only) -> float:
    if nodes < 20:
        raise DomainError(f"at least 20 quadrature nodes per axis required, got {nodes}")
    coarse = _quadrature_pass(params, state, kind, nodes, density_only)
    fine = _quadrature_pass(params, state, kind, nodes + 8, density_only)
    if abs(fine - coarse) > 1e-10 * max(abs(fine), 1e-300):
        raise QuadratureError(
            f"quadrature not converged: {coarse!r} vs {fine!r} at {nodes}/{nodes + 8} nodes")
    return fine


def total_energy(params: PhysicalParams, state: State, kind: ModelKind,
                 nodes: int = 24) -> float:
    """Total fluid energy (kinetic + internal) of the dimensional state.

    Constant along trajectories and proportional to the dimensionless energy
    of the reduced system, with a state-independent constant fixed by the
    Gaussian moments: (2 pi)^(D/2) n0 T0 prod_a Q0_a (2 pi n0 X0 Y0 T0 in
    2d, (2 pi)^(3/2) n0 X0^2 Y0 T0 for elliptic; the tests verify this
    against the quadrature rather than assuming it).
    """
    check_state(state, kind)
    return _converged_quadrature(params, state, kind, nodes, density_only=False)


def particle_number(params: PhysicalParams, state: State, kind: ModelKind,
                    nodes: int = 24) -> float:
    """Spatial integral of the number density (time-independent by continuity)."""
    check_state(state, kind)
    return _converged_quadrature(params, state, kind, nodes, density_only=True)
