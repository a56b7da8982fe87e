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
T, L = T - V and H = T + V are declared with the invariants
(:mod:`fireball.invariants`).

The integrator's right-hand side, :func:`vector_field`, is declared once as
source (:class:`FieldSource`) and derived from the axes; the integrator's
native loop inlines that source into its step, and the same source compiles
to the plain ``f(t, y)`` that the Python stepper and every other caller call.
"""

from __future__ import annotations

import functools
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


class FieldSource:
    """An autonomous scalar field y' = f(y), declared once as Python source.

    ``args`` names the state components; ``positive`` is the condition the
    state must meet, and ``refusal`` the f-string source of the
    :class:`DomainError` message raised when it does not; ``prelude`` holds
    statements whose names the ``outputs`` (one expression per component)
    may use.  All of them are Python source over these names on floats.  No
    name may start with an underscore: those are left to the code built
    from it.

    ``function`` is the declaration compiled as a plain ``f(t, y)``
    returning a tuple, which carries the declaration as ``f.source``.
    :func:`fireball.integrate.solve_ode` recognises that function, and its
    native loop (:mod:`fireball.native`) inlines this source into each
    stage of its step, so the field is written once and never called per
    stage; where that loop cannot serve, the Python stepper calls
    ``function``, which raises and returns what the inlined source does.
    Declarations compare by identity, and the solver builds a native step
    for each one it meets, so build each once.
    """

    def __init__(self, args: tuple[str, ...], positive: str, refusal: str,
                 outputs: tuple[str, ...], prelude: tuple[str, ...] = ()):
        if len(outputs) != len(args) or not all(
                name.isidentifier() and not name.startswith("_") for name in args):
            raise ValueError(f"malformed field declaration over {args}")
        self.args, self.positive, self.refusal = args, positive, refusal
        self.outputs, self.prelude = outputs, prelude
        lines = ["def field(_t, _y):",
                 f"    {', '.join(args)}, = _y",
                 f"    if not ({positive}):",
                 f"        raise _DomainError({refusal})",
                 *(f"    {line}" for line in prelude),
                 f"    return {', '.join(outputs)},"]
        namespace = {"_DomainError": DomainError}
        exec(compile("\n".join(lines) + "\n", "<declared field>", "exec"), namespace)
        self.function = namespace["field"]
        self.function.source = self


@functools.cache
def vector_field(kind: ModelKind) -> Callable[[float, list], Sequence[float]]:
    """First-order form f(t, [q..., qdot...]) = (qdot..., accel(q)...) of
    the model, on Python floats: the integrator's hot path, and its only
    positivity check.

    Raises :class:`DomainError` when any variance is <= POSITIVITY_FLOOR
    (NaN included), which the integrator treats as a rejected step.  The
    field is a :class:`FieldSource` derived from the axes, which the native
    loop of :func:`fireball.integrate.solve_ode` inlines into its step and
    its Python stepper calls where no compiler works.  Each acceleration
    1/(q_i P^(2/D)) is written as a product of variances in index order
    when 2/D is an integer (``1.0 / (X * X * Y)`` for 2d: X * X * X, not
    X ** 3, since a float power raises OverflowError where numpy returned
    inf) and as ``1.0 / (X * s)`` with
    ``s = (X * Y * Z) ** (2.0 / 3.0)`` for the 3d and elliptic models.
    """
    q = kind.labels
    qdot = tuple(f"{x}d" for x in q)
    axes = list(kind.sorted_axes)
    D = kind.spatial_dim
    if 2 % D == 0:  # P^(2/D) is P or P^2
        prelude = ()
        accels = tuple(
            "1.0 / ({})".format(" * ".join(q[a] for a in sorted([i] + axes * (2 // D))))
            for i in range(kind.dim))
    else:
        prelude = (f"s = ({' * '.join(q[a] for a in axes)}) ** (2.0 / {float(D)!r})",)
        accels = tuple(f"1.0 / ({x} * s)" for x in q)
    source = FieldSource(
        args=q + qdot,
        positive=" and ".join(f"{x} > {POSITIVITY_FLOOR!r}" for x in q),
        refusal=(f'f"variance at or below the positivity floor {POSITIVITY_FLOOR} '
                 f'in {{[{", ".join(q + qdot)}]}}"'),
        outputs=qdot + accels, prelude=prelude)
    return source.function


def potential(q: np.ndarray, kind: ModelKind):
    """Pseudo-potential V = (D/2) P^(-2/D), with P the product of the
    variances over the D spatial axes.

    Accepts a (d,) vector or an (n, d) batch; returns a scalar or (n,) array.
    This public form checks the variances and raises :class:`DomainError`
    for a non-positive one; ``_potential`` is the same formula without the
    check, for callers whose variances are already known to be positive.
    """
    q = np.asarray(q, dtype=float)
    return _potential(_positive(q), kind)


def _potential(q: np.ndarray, kind: ModelKind, out=None):
    D = kind.spatial_dim
    # an array for one state too: numpy's scalar power (libm's) rounds otherwise
    return np.multiply(D / 2, np.asarray(axis_product(q, kind)) ** (-2.0 / D), out=out)


@dataclass(frozen=True)
class EnergyPair:
    lagrangian: float
    hamiltonian: float


def energies(state: State, kind: ModelKind) -> EnergyPair:
    """Lagrangian and conserved energy at the given state: the declared L and H on a row of one."""
    from .invariants import _evaluator  # which imports this module
    q, qdot = check_state(state, kind).q[None], state.qdot[None]
    L, H = _evaluator(kind, ("L", "H"))(None, potential(q, kind), q, qdot)
    return EnergyPair(lagrangian=float(L[0]), hamiltonian=float(H[0]))
