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

Both equations of motion, the models' :func:`vector_field` and the angular
quadrature's :func:`_angular_field`, are declared here once as source
derived from the axes (:class:`FieldSource`), which :mod:`fireball.native`
translates into C for the integrator's native loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import ModelKind, State, axis_product, check_state

# Smallest variance the integrator may step to; the force is singular at 0.
POSITIVITY_FLOOR = 1e-12


def _positive(q: np.ndarray) -> np.ndarray:
    if not np.all(q > 0.0):  # NaN fails it too
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
    returning a tuple; calling the declaration calls it.  The solver's
    native loop inlines its C into each stage, so it is never called per
    stage; where that loop cannot serve, the Python stepper calls
    ``function``, which raises and returns what the inlined C does.
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

    def __call__(self, t, y):
        return self.function(t, y)


@functools.cache
def vector_field(kind: ModelKind) -> FieldSource:
    """First-order form f(t, [q..., qdot...]) = (qdot..., accel(q)...) of
    the model, on Python floats: the integrator's hot path, and its only
    positivity check.

    Raises :class:`DomainError` when any variance is <= POSITIVITY_FLOOR
    (NaN included), which the integrator treats as a rejected step.  The
    field is a :class:`FieldSource` derived from the axes, built once per
    kind.  Each acceleration 1/(q_i P^(2/D)) is written as a product of
    variances in index order when 2/D is an integer (``1.0 / (X * X * Y)``
    for 2d: X * X * X, not X ** 3, since a float power raises OverflowError
    where numpy returned inf) and as ``1.0 / (X * s)`` with
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
    return source


@functools.cache
def _angular_field(kind: ModelKind):
    """Field of the angular motion on the unit vector u = s / r of the
    stretched coordinates s = sqrt(M) q, in the time ttilde: the state is
    (u, u'), u' = du/dttilde, and

        u'' = a(u) - (|u'|^2 + 2 V(u)) u,   a_i = (2 M_i / D) V(u) / u_i,

    where a = -grad V at s = u, and u . a = 2 V(u) since V is homogeneous of
    degree -2.  V(u) = (D/2) (k prod u_a)^(-2/D) over the D spatial axes a,
    with k = 1 / sqrt(prod M_a), is derived from the axes as
    :func:`vector_field` derives its powers: ``1.0 / (uX * uY)`` for 2d,
    one ``**`` for elliptic.  It raises DomainError for a stage outside the
    open quadrant u > 0, so the solver rejects that step, as it does at a
    variance floor.  It is a :class:`FieldSource`, built once per kind, so
    that every quadrature reuses its compiled step."""
    D = kind.spatial_dim
    u = tuple(f"u{x}" for x in kind.labels)
    w = tuple(f"w{x}" for x in kind.labels)
    product = " * ".join(u[a] for a in kind.sorted_axes)
    k = 1.0 / math.sqrt(math.prod(kind.weights[a] for a in kind.sorted_axes))
    if k != 1.0:
        product = f"{k!r} * ({product})"
    if 2 % D == 0:  # (k prod)^(-2/D) is 1 / (k prod) or its square
        potential = f"{D / 2!r} / ({' * '.join([product] * (2 // D))})"
    else:
        potential = f"{D / 2!r} * ({product}) ** {-2.0 / D!r}"
    pulls = tuple("V" if c == 1.0 else f"{c!r} * V"
                  for c in (2.0 * kind.weights / D).tolist())
    return FieldSource(
        args=u + w,
        positive=" and ".join(f"{x} > 0.0" for x in u),
        refusal=f'f"the unit vector ({", ".join(f"{{{x}!r}}" for x in u)}) left u > 0"',
        prelude=(f"V = {potential}",
                 f"g = {' + '.join(f'{x} * {x}' for x in w)} + 2.0 * V"),
        outputs=w + tuple(f"{pull} / {x} - g * {x}" for pull, x in zip(pulls, u)))


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
