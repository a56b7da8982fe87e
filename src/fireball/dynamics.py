"""Equations of motion of the four reduced systems, and the one declaration
of every quantity of their Lagrangian.

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

The force and V are declared once per model as source (:func:`_force`), and
after them (:func:`declaration`) T = sum(M qdot^2) / 2, H = T + V,
L = T - V, J = 2 t H - q . p with p = M qdot and the radial invariant C of
:mod:`fireball.invariants`, as one-name Python statements over the
coordinates, their rates (``Xd`` for X) and ``t``, each sum left to right
in index order, as :func:`fireball.models.row_sum` adds, so each operation
rounds once wherever the text runs.  C sums its pair terms
a_ij = (M_i M_j c_ij) c_ij, with c_ij = q_i qdot_j - q_j qdot_i, once each
over the pairs i < j: 0.5 a01 + r^2 V in 2d, 0.5 ((a01 + a02) + a12) + r^2 V
in 3d.

The field :func:`vector_field` (a :class:`FieldSource`, as is the angular
quadrature's :func:`_angular_field`) runs the force on floats or, translated
by :mod:`fireball.native`, as C.  :func:`evaluator` compiles the declaration
for numpy on the columns of a batch (a (d,) state rounds as its batch row),
each ``**`` as the C library's ``pow`` per element
(:func:`fireball.models.power`), as in Python and C, so no output byte
depends on numpy's SIMD loops; :func:`evaluate` checks the variances first.
The invariant report's C (:func:`fireball.invariants.report_source`) runs
the same statements.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import ModelKind, State, check_state, power

# Smallest variance the integrator may step to; the force is singular at 0.
POSITIVITY_FLOOR = 1e-12


def _positive(q: np.ndarray) -> np.ndarray:
    if not np.all(q > 0.0):  # NaN fails it too
        raise DomainError(f"singular force: non-positive variance in {q}")
    return q


@functools.cache
def _force(kind: ModelKind) -> tuple[tuple[str, ...], tuple[str, ...], str]:
    """The model's force and potential as Python source over its coordinates:
    ``(prelude, accelerations, V)``.  Each acceleration 1/(q_i P^(2/D)) and
    V = (D/2) P^(-2/D) divides by P^(2/D) as variances in index order where
    2/D is an integer (2d: ``1.0 / (X * X * Y)``, ``1.0 / (X * Y)``; X * X * X,
    not X ** 3, whose float power raises OverflowError), else by the prelude's
    ``s = (X * Y * Z) ** (2.0 / 3.0)`` (``1.0 / (X * s)``, ``1.5 / (s)``)."""
    q, D = kind.labels + ("s",), kind.spatial_dim
    factors = list(kind.sorted_axes) * (2 // D) if 2 % D == 0 else [kind.dim]  # [s]

    def product(*extra):
        return " * ".join(q[a] for a in sorted([*extra, *factors]))

    prelude = () if 2 % D == 0 else (
        f"s = ({' * '.join(q[a] for a in kind.sorted_axes)}) ** (2.0 / {float(D)!r})",)
    return (prelude, tuple(f"1.0 / ({product(i)})" for i in range(kind.dim)),
            f"{D / 2!r} / ({product()})")


# the report's names of C
_ALIASES = {ModelKind.TWO_D: ("I = C",), ModelKind.ELLIPTIC_3D: ("I = 0.5 * C", "Itilde = C")}


@functools.cache
def declaration(kind: ModelKind, outputs: tuple[str, ...]):
    """``(columns, statements)``: the statements over the coordinates, their
    rates (``Xd`` for X) and ``t`` that the values named ``outputs`` (``V``
    and ``Xdd`` among them) need, and as (name, ``"q"`` or ``"v"``, i) the
    columns i they read.  The
    terms M qdot^2, q (M qdot) and (M q)(q V), finite where r^2 overflows
    (q > 1e154), are formed as numpy forms them from arrays (1.0 * x as x)."""
    q, M = kind.labels, kind.weights.tolist()
    qd = tuple(f"{x}d" for x in q)

    def weighted(m, x):
        return x if m == 1.0 else f"{m!r} * {x}"

    kinetic = " + ".join(weighted(m, f"({v} * {v})") for m, v in zip(M, qd))
    momenta = " + ".join(f"{x} * ({weighted(m, v)})" for m, x, v in zip(M, q, qd))
    radial = " + ".join(f"{weighted(m, x)} * ({x} * V)" for m, x in zip(M, q))
    prelude, accels, potential = _force(kind)
    lines = [*prelude, f"V = {potential}", *(f"{x}dd = {a}" for x, a in zip(q, accels)),
             f"T = 0.5 * ({kinetic})", "H = T + V", "L = T - V", f"J = 2.0 * t * H - ({momenta})"]
    pairs = [(i, j) for j in range(kind.dim) for i in range(j)]
    for i, j in pairs:
        lines += [f"c{i}{j} = {q[i]} * {qd[j]} - {q[j]} * {qd[i]}",
                  f"a{i}{j} = {weighted(M[i] * M[j], f'c{i}{j}')} * c{i}{j}"]
    terms = " + ".join(f"a{i}{j}" for i, j in pairs)
    lines.append(f"C = 0.5 * ({terms}) + ({radial})" if pairs else f"C = {radial}")
    needed, kept = set(outputs), []
    for line in reversed(lines + list(_ALIASES.get(kind, ()))):
        node = ast.parse(line).body[0]
        if node.targets[0].id in needed:
            kept.insert(0, line)
            needed |= {name.id for name in ast.walk(node.value) if isinstance(name, ast.Name)}
    return tuple((x, rows, i) for rows, names in (("q", q), ("v", qd))
                 for i, x in enumerate(names) if x in needed), tuple(kept)


class _Power(ast.NodeTransformer):
    """Each ``a ** b`` as ``_power(a, b)``."""

    def visit_BinOp(self, node):
        node = self.generic_visit(node)
        return (ast.Call(ast.Name("_power", ast.Load()), [node.left, node.right], [])
                if isinstance(node.op, ast.Pow) else node)


@functools.cache
def evaluator(kind: ModelKind, outputs: tuple[str, ...]):
    """The declaration of ``outputs`` compiled as ``values(t, q, v)``,
    returning their tuple, with numpy on the columns ``q[..., i]`` and
    ``v[..., i]`` it reads and each ``**`` as :func:`fireball.models.power`.
    It checks nothing: :func:`energies` and the invariant report run it on
    a State's or a Trajectory's variances, which are positive."""
    columns, statements = declaration(kind, outputs)
    lines = ["def values(t, q, v):", *(f"{x} = {rows}[..., {i}]" for x, rows, i in columns),
             *statements, f"return {', '.join(outputs)},"]
    tree = ast.fix_missing_locations(_Power().visit(ast.parse("\n    ".join(lines))))
    namespace = {"_power": power}
    exec(compile(tree, "<declared invariants>", "exec"), namespace)
    return namespace["values"]


def evaluate(kind: ModelKind, outputs: tuple[str, ...], qs, qdots=None, ts=None) -> tuple:
    """The declared values named ``outputs``, as a tuple, at (d,) or (n, d)
    variances ``qs``, rates ``qdots`` and (n,) times ``ts``, each read only
    where an output needs it; raises :class:`DomainError` for a variance
    that is not positive."""
    qs = _positive(np.asarray(qs, dtype=float))
    ts, qdots = (None if a is None else np.asarray(a, dtype=float) for a in (ts, qdots))
    return evaluator(kind, outputs)(ts, qs, qdots)


def accel(q: np.ndarray, kind: ModelKind) -> np.ndarray:
    """Acceleration 1/(q P^(2/D)) at (d,) or (n, d) variances ``q``, with P
    their product over the D spatial axes: :func:`vector_field`'s, bit for bit."""
    return np.stack(evaluate(kind, tuple(f"{x}dd" for x in kind.labels), q), -1)


def potential(q: np.ndarray, kind: ModelKind):
    """Pseudo-potential V = (D/2) P^(-2/D) at (d,) or (n, d) variances ``q``,
    a scalar or (n,) array; raises :class:`DomainError` for one not positive."""
    return evaluate(kind, ("V",), q)[0]


@dataclass(frozen=True)
class EnergyPair:
    lagrangian: float
    hamiltonian: float


def energies(state: State, kind: ModelKind) -> EnergyPair:
    """Lagrangian and conserved energy at the given state: the declared L and H on a row of one."""
    L, H = evaluator(kind, ("L", "H"))(None, check_state(state, kind).q[None], state.qdot[None])
    return EnergyPair(lagrangian=float(L[0]), hamiltonian=float(H[0]))


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
    field is a :class:`FieldSource` of the declared force (:func:`_force`),
    built once per kind.
    """
    prelude, accels, _ = _force(kind)
    q = kind.labels
    qdot = tuple(f"{x}d" for x in q)
    return FieldSource(
        args=q + qdot,
        positive=" and ".join(f"{x} > {POSITIVITY_FLOOR!r}" for x in q),
        refusal=(f'f"variance at or below the positivity floor {POSITIVITY_FLOOR} '
                 f'in {{[{", ".join(q + qdot)}]}}"'),
        outputs=qdot + accels, prelude=prelude)


@functools.cache
def _angular_field(kind: ModelKind):
    """Field of the angular motion on the unit vector u = s / r of the
    stretched coordinates s = sqrt(M) q, in the time ttilde: the state is
    (u, u'), u' = du/dttilde, and

        u'' = a(u) - (|u'|^2 + 2 V(u)) u,   a_i = (2 M_i / D) V(u) / u_i,

    where a = -grad V at s = u, and u . a = 2 V(u) since V is homogeneous of
    degree -2.  V(u) = (D/2) (k prod u_a)^(-2/D) over the D spatial axes a,
    with k = 1 / sqrt(prod M_a), is derived from the axes as
    :func:`_force` derives its powers: ``1.0 / (uX * uY)`` for 2d,
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
