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
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .models import ModelKind, State, axis_product, check_state

# Smallest variance the integrator may step to; the force is singular at 0.
POSITIVITY_FLOOR = 1e-12


def _positive(q: np.ndarray) -> np.ndarray:
    if np.any(q <= 0.0):
        raise DomainError(f"singular force: non-positive variance in {q}")
    return q


def accel(q: np.ndarray, kind: ModelKind) -> np.ndarray:
    """Acceleration 1/(q P^(2/D)) at variances ``q``, with P the product of
    the variances over the D spatial axes.

    Accepts a (d,) vector or an (n, d) batch like :func:`potential`.
    """
    q = np.asarray(q, dtype=float)
    _positive(q)
    return 1.0 / (q * np.expand_dims(axis_product(q, kind), -1) ** (2.0 / kind.spatial_dim))


# Scalar vector fields y' = f(t, y) with y = (q, qdot) as a list of floats:
# the integrator's hot path, and its only positivity check.  X * X * X, not
# X ** 3: a float power raises OverflowError where numpy returned inf (the
# 2/3 powers below cannot overflow).
def _below_floor(y) -> DomainError:
    return DomainError(
        f"variance at or below the positivity floor {POSITIVITY_FLOOR} in {y}")


def _field_1d(t, y):
    X, Xd = y
    if not X > POSITIVITY_FLOOR:
        raise _below_floor(y)
    return Xd, 1.0 / (X * X * X)


def _field_2d(t, y):
    X, Y, Xd, Yd = y
    if not (X > POSITIVITY_FLOOR and Y > POSITIVITY_FLOOR):
        raise _below_floor(y)
    return Xd, Yd, 1.0 / (X * X * Y), 1.0 / (X * Y * Y)


def _field_3d(t, y):
    X, Y, Z, Xd, Yd, Zd = y
    if not (X > POSITIVITY_FLOOR and Y > POSITIVITY_FLOOR and Z > POSITIVITY_FLOOR):
        raise _below_floor(y)
    s = (X * Y * Z) ** (2.0 / 3.0)
    return Xd, Yd, Zd, 1.0 / (X * s), 1.0 / (Y * s), 1.0 / (Z * s)


def _field_elliptic(t, y):
    X, Y, Xd, Yd = y
    if not (X > POSITIVITY_FLOOR and Y > POSITIVITY_FLOOR):
        raise _below_floor(y)
    s = (X * X * Y) ** (2.0 / 3.0)
    return Xd, Yd, 1.0 / (X * s), 1.0 / (Y * s)


_FIELDS = {ModelKind.ONE_D: _field_1d, ModelKind.TWO_D: _field_2d,
           ModelKind.THREE_D: _field_3d, ModelKind.ELLIPTIC_3D: _field_elliptic}


def vector_field(kind: ModelKind) -> Callable[[float, list], Sequence[float]]:
    """First-order form f(t, [q..., qdot...]) = (qdot..., accel(q)...) of
    the model, on Python floats.

    Raises :class:`DomainError` when any variance is <= POSITIVITY_FLOOR
    (NaN included), which the integrator treats as a rejected step.
    """
    return _FIELDS[kind]


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
