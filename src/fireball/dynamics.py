"""Equations of motion of the four reduced systems.

All models share the structure  qddot = force(q)  with an inverse-cubic-like
force derived from a pseudo-potential V:

    2d:        Xdd = 1/(X^2 Y),          Ydd = 1/(X Y^2),      V = 1/(X Y)
    3d:        Xdd = 1/(X (X Y Z)^{2/3}) (cyclic),             V = (3/2) (X Y Z)^{-2/3}
    elliptic:  Xdd = 1/(X (X^2 Y)^{2/3}), Ydd = 1/(Y (X^2 Y)^{2/3}),
                                                               V = (3/2) (X^2 Y)^{-2/3}
    1d:        Xdd = 1/X^3,                                    V = 1/(2 X^2)

Every model is  Xdd_i = 1/(X_i P^{2/D})  with P the product of the
variances over the D spatial axes (elliptic: Z = X, so P = X^2 Y), and
V = (D/2) P^{-2/D}.  The kinetic weights M count the spatial axes each
coordinate carries (elliptic: M = (2, 1), so its kinetic term is
Xd^2 + Yd^2/2); the Euler-Lagrange equations read  M qdd = -grad V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .models import ModelKind, State, axis_product, check_state


def _positive(q: np.ndarray) -> np.ndarray:
    if np.any(q <= 0.0):
        raise DomainError(f"singular force: non-positive variance in {q}")
    return q


def accel(q: np.ndarray, kind: ModelKind) -> np.ndarray:
    """Acceleration vector at variances ``q`` (raw-array fast path)."""
    _positive(q)
    if kind is ModelKind.TWO_D:
        X, Y = q
        return np.array([1.0 / (X * X * Y), 1.0 / (X * Y * Y)])
    if kind is ModelKind.THREE_D:
        s = (q[0] * q[1] * q[2]) ** (2.0 / 3.0)
        return 1.0 / (q * s)
    if kind is ModelKind.ELLIPTIC_3D:
        X, Y = q
        s = (X * X * Y) ** (2.0 / 3.0)
        return np.array([1.0 / (X * s), 1.0 / (Y * s)])
    if kind is ModelKind.ONE_D:
        return np.array([1.0 / q[0] ** 3])
    raise UnsupportedModelError(str(kind))


def rhs(state: State, kind: ModelKind) -> np.ndarray:
    """Acceleration of the variances for the given model."""
    check_state(state, kind)
    return accel(state.q, kind)


def potential(q: np.ndarray, kind: ModelKind):
    """Pseudo-potential V = (D/2) P^(-2/D), with P the product of the
    variances over the D spatial axes.

    Accepts a (d,) vector or an (n, d) batch; returns a scalar or (n,) array.
    """
    q = np.asarray(q, dtype=float)
    _positive(q)
    D = kind.spatial_dim
    return D / 2 * axis_product(q, kind) ** (-2.0 / D)


def pseudo_potential(state: State, kind: ModelKind) -> float:
    check_state(state, kind)
    return float(potential(state.q, kind))


def kinetic(qdot: np.ndarray, kind: ModelKind):
    """Kinetic part of the energy, sum(M qdot^2) / 2 (batch-friendly like
    :func:`potential`)."""
    qdot = np.asarray(qdot, dtype=float)
    return 0.5 * np.sum(kind.weights * qdot ** 2, axis=-1)


def canonical_momenta(state: State, kind: ModelKind) -> np.ndarray:
    """dL/d(qdot) = M qdot: qdot except for the elliptic model's (2 Xd, Yd)."""
    check_state(state, kind)
    return kind.weights * state.qdot


@dataclass(frozen=True)
class EnergyPair:
    lagrangian: float
    hamiltonian: float


def energies(state: State, kind: ModelKind) -> EnergyPair:
    """Lagrangian and conserved energy at the given state."""
    check_state(state, kind)
    T = float(kinetic(state.qdot, kind))
    V = float(potential(state.q, kind))
    return EnergyPair(lagrangian=T - V, hamiltonian=T + V)
