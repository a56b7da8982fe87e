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

Each probe sits at x = p Q_c, a fixed multiple p of the stencil centre's
widths, so every term of the residuals is a product of a per-sample and a
per-probe factor, or a sum of D of them: the density exponent at a
neighbouring sample s is (Q_c/Q_s)^2 . p^2, div(n v) = n_c (sum rate - rate
. p^2), and the momentum residual on axis a is p_a g_a.  They are built as
(rows, probes) arrays with no (rows, probes, D) intermediate, over blocks of
RESIDUAL_BLOCK_ROWS stencil rows that bound the memory they take.
:func:`total_energy` and :func:`particle_number` are the profile's
closed-form Gaussian moments (see :func:`_gaussian_moments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import (ModelKind, PhysicalParams, State, axis_product,
                     check_state, reference_scales)
from .integrate import Trajectory

PROBE_LIMIT_SIGMA = 5.0
# Stencil rows per block in pde_residuals: bounds its (rows, probes)
# temporaries, which have 125 probes per row for the 3-axis models.
RESIDUAL_BLOCK_ROWS = 128
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FluidFields:
    """Local fluid quantities at one spatial point."""

    n: float
    v: np.ndarray
    T: float
    p: float
    eps: float


def _profile(params: PhysicalParams, qs, qdots, kind: ModelKind):
    """The Gaussian profile of dimensional states ``qs``, ``qdots`` (..., dim):
    per-axis variances Q and rates Qd (..., D), the density prefactor
    n0 prod_a(Q0_a / Q_a) and the temperature T0 prod_a(Q0_a / Q_a)^(2/D)."""
    ratio = axis_product(params.variances(kind), kind) / axis_product(qs, kind)
    axes = list(kind.axes)
    return (qs[..., axes], qdots[..., axes], params.n0 * ratio,
            params.T0 * ratio ** (2.0 / kind.spatial_dim))


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
    Q, Qd, n_pref, T = _profile(params, state.q, state.qdot, kind)
    n = float(n_pref) * math.exp(-float(np.sum(point ** 2 / (2 * Q ** 2))))
    T = float(T)
    return FluidFields(n=n, v=Qd / Q * point, T=T, p=n * T, eps=D / 2 * n * T)


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


def pde_residuals(params: PhysicalParams, traj: Trajectory,
                  probe_points=None) -> PdeResidualReport:
    """Substitute the profile built on a (dimensionless) trajectory into the
    hydrodynamic equations.

    Probe points are given in units of the instantaneous standard deviation
    per spatial axis (must lie within +-5); each residual is evaluated at the
    fixed physical location selected by the stencil's center sample.
    """
    kind = traj.kind
    D = kind.spatial_dim

    probes = default_probe_points(kind) if probe_points is None \
        else np.atleast_2d(np.asarray(probe_points, dtype=float))
    if probes.shape[1] != D:
        raise DomainError(f"probe points must have {D} coordinates")
    if np.any(np.abs(probes) > PROBE_LIMIT_SIGMA):
        raise DomainError(f"probe points must lie within +-{PROBE_LIMIT_SIGMA} sigma")

    length, time_scale = reference_scales(params, kind)
    Q, Qd, n_pref, T = _profile(params, traj.qs * length,
                                traj.qdots * (length / time_scale), kind)
    rate = Qd / Q
    dt = traj.stencil_step() * time_scale
    m = params.m

    rows = len(traj) - 2
    continuity = np.empty((rows, len(probes)))
    momentum = np.empty_like(continuity)
    energy = np.empty_like(continuity)
    # Per-probe and per-row factors of the terms (module docstring).
    p2 = (probes ** 2).T  # (D, probes)
    gauss_c = np.exp(-0.5 * np.sum(p2, axis=0))  # n / n_pref at the centre
    abs_p = np.abs(probes)
    rate_sum = np.sum(rate, axis=1)
    # Momentum residual on axis a: p_a g_a, with g_a the per-row factor of x_a.
    g = np.abs(((rate[2:] - rate[:-2]) / (2 * dt) + rate[1:-1] ** 2
                - T[1:-1, None] / (m * Q[1:-1] ** 2)) * Q[1:-1])
    # Stencil center c = lo..hi-1 with neighbours c-1 / c+1; output row c-1.
    for lo in range(1, rows + 1, RESIDUAL_BLOCK_ROWS):
        hi = min(lo + RESIDUAL_BLOCK_ROWS, rows + 1)
        c, before, after = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
        n_m = n_pref[before, None] * np.exp(-0.5 * ((Q[c] / Q[before]) ** 2 @ p2))
        n_p = n_pref[after, None] * np.exp(-0.5 * ((Q[c] / Q[after]) ** 2 @ p2))
        n_c = n_pref[c, None] * gauss_c
        T_c = T[c, None]
        div_nv = n_c * (rate_sum[c, None] - rate[c] @ p2)
        continuity[before] = (n_p - n_m) / (2 * dt) + div_nv
        energy[before] = D / 2 * (n_p * T[after, None] - n_m * T[before, None]) / (2 * dt) \
            + D / 2 * T_c * div_nv + n_c * T_c * rate_sum[c, None]
        block = momentum[before]
        np.multiply(g[before, 0, None], abs_p[:, 0], out=block)
        for a in range(1, D):
            np.maximum(block, g[before, a, None] * abs_p[:, a], out=block)

    return PdeResidualReport(times=traj.times[1:-1] * time_scale, probes=probes,
                             continuity=continuity, momentum=momentum,
                             energy=energy)


def _gaussian_moments(params: PhysicalParams, state: State,
                      kind: ModelKind) -> tuple[float, float]:
    """Particle number N and total energy E of the dimensional state.

    Both are elementary Gaussian moments of the profile: over each axis the
    density integrates to sqrt(2 pi) Q_a, so N = n0 ratio prod_a(sqrt(2 pi)
    Q_a) with ratio = prod_a(Q0_a / Q_a).  Per particle, eps / n = D T / 2
    and m v_a^2 / 2 averages to m Qd_a^2 / 2, so
    E = N (D/2 T + m/2 sum_a Qd_a^2).
    """
    check_state(state, kind)
    Q, Qd, n_pref, T = _profile(params, state.q, state.qdot, kind)
    number = float(n_pref) * float(np.prod(_SQRT_2PI * Q))
    per_particle = kind.spatial_dim / 2 * float(T) + params.m / 2 * float(np.sum(Qd ** 2))
    return number, number * per_particle


def total_energy(params: PhysicalParams, state: State, kind: ModelKind) -> float:
    """Total fluid energy (kinetic + internal) of the dimensional state.

    Constant along trajectories and proportional to the dimensionless energy
    of the reduced system, with the state-independent constant
    (2 pi)^(D/2) n0 T0 prod_a Q0_a (2 pi n0 X0 Y0 T0 in 2d, (2 pi)^(3/2) n0
    X0^2 Y0 T0 for elliptic).
    """
    return _gaussian_moments(params, state, kind)[1]


def particle_number(params: PhysicalParams, state: State, kind: ModelKind) -> float:
    """Spatial integral of the number density (time-independent by continuity)."""
    return _gaussian_moments(params, state, kind)[0]
