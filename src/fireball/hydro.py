"""Gaussian-profile fluid fields, conservation-law residuals, total energy.

The reduced ODEs of all four models come from one Gaussian profile with a
linear velocity field and a spatially uniform temperature.  Over the D
spatial axes a, with variance Q_a on axis a (the model's coordinates X, Y,
Z; the elliptic model's third axis carries X) and reference variance Q0_a:

    n   = n0 prod_a(Q0_a / Q_a) exp(-sum_a x_a^2 / 2 Q_a^2),
    v_a = (Qd_a / Q_a) x_a,
    T   = T0 prod_a(Q0_a / Q_a)^(2/D),   p = n T,   eps = (D/2) n T.

So 1d has T = T0 (X0/X)^2 and eps = n T / 2, and 2d has T = T0 X0 Y0/(X Y)
and eps = n T.  :func:`pde_residuals` substitutes these fields into the
continuity, momentum and energy equations at given states with given
accelerations.  Every derivative is exact: the spatial ones are those of
elementary Gaussians, and the time derivatives follow from Qd and Qdd by the
chain rule.  Continuity and the energy law then hold identically for any
variance history; the momentum equation on axis a reduces to
x_a (Qdd_a - T / (m Q_a)) / Q_a = 0, which is the model's equation of motion
in dimensional units.  So along the model's own accelerations every
residual is rounding, and accelerations off by a relative delta move the
momentum residual to delta Qdd over the sum of its terms' magnitudes, at
most about delta / 2.
:func:`moment_values` gives the profile's closed-form Gaussian moments, the
particle number and the total energy, on batches; :func:`total_energy` is
the energy of one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import (ModelKind, PhysicalParams, State, axis_product,
                     check_state, reference_scales)

PROBE_LIMIT_SIGMA = 5.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _profile(params: PhysicalParams, qs, qdots, kind: ModelKind):
    """The Gaussian profile of dimensional states ``qs``, ``qdots`` (..., dim):
    per-axis variances Q and rates Qd (..., D), the density prefactor
    n0 prod_a(Q0_a / Q_a) and the temperature T0 prod_a(Q0_a / Q_a)^(2/D)."""
    ratio = axis_product(params.variances(kind), kind) / axis_product(qs, kind)
    axes = list(kind.axes)
    return (qs[..., axes], qdots[..., axes], params.n0 * ratio,
            params.T0 * ratio ** (2.0 / kind.spatial_dim))


def default_probe_points(kind: ModelKind) -> np.ndarray:
    """Tensor grid of {0, +-1, +-2} standard deviations per spatial axis."""
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    grids = np.meshgrid(*[offsets] * kind.spatial_dim, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


@dataclass(frozen=True)
class PdeResidualReport:
    """Relative residuals of the three conservation laws, per (state, probe)."""

    probes: np.ndarray
    continuity: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray

    @property
    def max_abs(self) -> float:
        """The largest residual, NaN where any residual is NaN."""
        return float(np.max([np.max(self.continuity), np.max(self.momentum),
                             np.max(self.energy)]))


def _relative(terms) -> np.ndarray:
    """|sum of the terms| over the sum of their magnitudes; 0 where the
    terms vanish.  Subnormal terms round in absolute, not relative, steps,
    so a magnitude sum below the smallest normal float counts as vanishing."""
    total, size = sum(terms), sum(np.abs(term) for term in terms)
    return np.divide(np.abs(total), size, out=np.zeros_like(size),
                     where=size >= np.finfo(float).tiny)


def pde_residuals(params: PhysicalParams, qs, qdots, qdds, kind: ModelKind,
                  probe_points=None) -> PdeResidualReport:
    """Substitute the profile of dimensionless states ``qs``, ``qdots`` with
    accelerations ``qdds`` (each (states, dim)) into the hydrodynamic
    equations.

    Probe points are given in units of each state's standard deviation per
    spatial axis (must lie within +-5); every input must be finite.  Each
    residual is the sum of its equation's terms relative to the sum of their
    magnitudes, so it does not depend on the units of ``params``; the momentum
    residual is the largest over the axes.  The terms are (states, probes)
    arrays, so memory grows with both: 1,001 3d states at the 125 default probes
    peak at about 17 MB.
    """
    probes = default_probe_points(kind) if probe_points is None \
        else np.atleast_2d(np.asarray(probe_points, dtype=float))
    if probes.shape[1] != kind.spatial_dim:
        raise DomainError(f"probe points must have {kind.spatial_dim} coordinates")
    if not np.all(np.abs(probes) <= PROBE_LIMIT_SIGMA):  # NaN fails it too
        raise DomainError(f"probe points must lie within +-{PROBE_LIMIT_SIGMA} sigma")
    qs, qdots, qdds = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (qs, qdots, qdds))
    if not qs.shape == qdots.shape == qdds.shape or qs.shape[1] != kind.dim:
        raise DomainError(f"states and accelerations must be (n, {kind.dim}) arrays, got "
                          f"{qs.shape}, {qdots.shape}, {qdds.shape}")
    if not (((qs > 0.0) & (qs < np.inf)).all() and np.isfinite([qdots, qdds]).all()):
        raise DomainError("variances must be positive and finite, rates and accelerations finite")

    length, time_scale = reference_scales(params, kind)
    Q, Qd, n_pref, T = _profile(params, qs * length, qdots * (length / time_scale), kind)
    Qdd = qdds[:, list(kind.axes)] * (length / time_scale ** 2)
    rate = Qd / Q
    div_v = np.sum(rate, axis=1)
    # At x_a = p_a Q_a every term is a per-state factor times a per-probe one
    # (states, probes): n = n_pref exp(-|p|^2 / 2), the exponent changes at
    # rate . p^2, and v . grad n = -n rate . p^2.
    gauss = np.exp(-0.5 * np.sum(probes ** 2, axis=1))
    n = n_pref[:, None] * gauss
    exponent_dt = n * (rate @ (probes ** 2).T)
    # dn/dt from the exponent and from the prefactor prod(Q0/Q);
    # div(n v) = v . grad n + n div v
    continuity = [exponent_dt, (-n_pref * div_v)[:, None] * gauss,
                  -exponent_dt, n * div_v[:, None]]
    # eps = D/2 n T: d eps/dt = D/2 (T dn/dt + n dT/dt) with
    # dT/dt = -(2/D) T div v, div(eps v) = D/2 T div(n v), and p div v
    half_D = kind.spatial_dim / 2
    dT_dt = -T * div_v / half_D
    energy = [half_D * T[:, None] * term for term in continuity] \
        + [half_D * n * dT_dt[:, None], n * (T * div_v)[:, None]]
    # On axis a each term carries x_a, so the momentum residual vanishes
    # where p_a = 0; per unit x_a: dv/dt = Qdd/Q - rate^2,
    # (v . grad) v = rate^2 and grad p / (m n) = -T / (m Q^2).
    per_axis = _relative([Qdd / Q, -rate ** 2, rate ** 2, -T[:, None] / (params.m * Q ** 2)])
    momentum = np.max(per_axis[:, None, :] * (probes != 0.0), axis=-1)
    return PdeResidualReport(probes=probes, continuity=_relative(continuity),
                             momentum=momentum, energy=_relative(energy))


def moment_values(params: PhysicalParams, qs, qdots, kind: ModelKind):
    """Particle number N and total energy E of dimensional states ``qs``,
    ``qdots`` (..., dim), as floats or arrays; the variances, unchecked, must be positive.

    Both are elementary Gaussian moments of the profile: over each axis the
    density integrates to sqrt(2 pi) Q_a, so N = n0 ratio prod_a(sqrt(2 pi)
    Q_a) with ratio = prod_a(Q0_a / Q_a).  Per particle, eps / n = D T / 2
    and m v_a^2 / 2 averages to m Qd_a^2 / 2, so
    E = N (D/2 T + m/2 sum_a Qd_a^2).
    """
    Q, Qd, n_pref, T = _profile(params, qs, qdots, kind)
    number = n_pref * np.prod(_SQRT_2PI * Q, axis=-1)
    per_particle = kind.spatial_dim / 2 * T + params.m / 2 * np.sum(Qd ** 2, axis=-1)
    return number, number * per_particle


def total_energy(params: PhysicalParams, state: State, kind: ModelKind) -> float:
    """Total fluid energy (kinetic + internal) of the dimensional state.

    Constant along trajectories and proportional to the dimensionless energy
    of the reduced system, with the state-independent constant
    (2 pi)^(D/2) n0 T0 prod_a Q0_a (2 pi n0 X0 Y0 T0 in 2d, (2 pi)^(3/2) n0
    X0^2 Y0 T0 for elliptic).
    """
    check_state(state, kind)
    # the batch form on a row of one, so that it rounds as the batch does
    return float(moment_values(params, state.q[None], state.qdot[None], kind)[1][0])
