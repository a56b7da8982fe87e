"""First integrals of the reduced systems and drift reporting.

Every model carries the energy H, the scaling invariant J = 2 t H - q . p
and, V being homogeneous of degree -2, the radial invariant of the
Lagrange-Jacobi identity, C = r^2 H - (r rdot)^2 / 2 with r^2 = sum(M q^2).
Its one implementation is the form Lagrange's identity gives on
u = sqrt(M) q, free of the cancellation of those two terms on late states:

    C = 1/2 sum_{i<j} M_i M_j (q_i qdot_j - q_j qdot_i)^2 + r^2 V(q).

T, L, H, J and C are declared once per model, with the force, in
:mod:`fireball.dynamics`, each sum left to right and C's pair terms once each;
:func:`fireball.dynamics.evaluate` evaluates them with numpy for the batch
forms here (a (d,) state rounds as its batch row) and
:func:`fireball.native.statement_block` writes them into the report's C
pass (:func:`report_source`), one per model over a trajectory's rows, in
place through their strides: V, the series and their largest deviations,
with numpy's bits (C's ``/`` and ``pow``).  An address fetched from numpy
costs 1.2-2 us (2-vCPU x86-64), so a call fetches three, those of the times
and the two row arrays; its output block is an :class:`array.array`, whose
address is cheap.  The report (:func:`invariant_report`) makes no
positivity check (a Trajectory holds positive variances); the
``fireball.invariants`` logger says which path serves.

C is 1/2 in 1d, H r0^2 - J^2/2 in 3d, the Ermakov invariant
I = (X Yd - Y Xd)^2 / 2 + Y/X + X/Y in 2d and Itilde = 2 I in the elliptic
model.  Structural lower bounds: I >= 2 for the 2-d model (AM-GM on
Y/X + X/Y) and I >= 9/4 for the elliptic one.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from array import array
from dataclasses import dataclass
from string import Template

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .models import ModelKind, State, check_state
from .integrate import Trajectory
from . import dynamics

log = logging.getLogger("fireball.invariants")


def hamiltonian_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Energy H on a batch of states; qs/qdots are (n, d)."""
    return dynamics.evaluate(kind, ("H",), qs, qdots)[0]


def radial_invariant_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Radial invariant C on a batch of states; qs/qdots are (n, d) or (d,)."""
    return dynamics.evaluate(kind, ("C",), qs, qdots)[0]


def ermakov_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Ermakov invariant I on a batch of planar states; qs/qdots are (n, 2)."""
    if not kind.has_ermakov_invariant:
        raise UnsupportedModelError(
            f"the Ermakov invariant is defined for 2d/elliptic models, not {kind.value!r}")
    return dynamics.evaluate(kind, ("I",), qs, qdots)[0]


def noether_values(ts, qs, qdots, kind: ModelKind) -> np.ndarray:
    """Scaling invariant J = 2 t H - q . p on a batch of states, p = M qdot."""
    return dynamics.evaluate(kind, ("J",), qs, qdots, ts)[0]


def noether_invariant(state: State, kind: ModelKind) -> float:
    """Time-dependent scaling invariant J at the given state."""
    check_state(state, kind)
    return float(noether_values(state.t, state.q, state.qdot, kind))


@dataclass(frozen=True)
class InvariantReport:
    """Per-sample invariant values and their maximum relative drift.

    Drift is max |v(t) - v(0)| / |v(0)| except for J, whose initial value can
    vanish; there the denominator is max(1, |J(0)|).
    """

    kind: ModelKind
    times: np.ndarray
    values: dict[str, np.ndarray]
    drift: dict[str, float]


# The report's series by model, in the order both of its paths give them.
_SERIES = {ModelKind.ONE_D: ("H", "J"), ModelKind.TWO_D: ("H", "J", "I"),
           ModelKind.THREE_D: ("H", "J", "C"), ModelKind.ELLIPTIC_3D: ("H", "J", "I", "Itilde")}


# The function of the invariant report's C source (report_source) for a model.
_REPORT = Template("""
void fireball_report_$model(long long n, const double *t, long long ts,
        const double *q, long long qr, long long qc,
        const double *v, long long vr, long long vc, double *out)
{
    double *deviation = out + $count * n, *first = deviation + $count;
    double $locals, x;
    long long i, j;

    for (j = 0; j < $count; j++)
        deviation[j] = 0.0;
    for (i = 0; i < n; i++) {
$body
        double value[] = {$values};
        for (j = 0; j < $count; j++) {
            out[j * n + i] = value[j];
            if (i == 0)
                first[j] = value[j];
            /* np.maximum.reduce: a NaN, once met, stays */
            x = __builtin_fabs(value[j] - first[j]);
            if (x > deviation[j] || x != x)
                deviation[j] = x;
        }
    }
}
""")


def report_source() -> str:
    """C source of the invariant report: for each model the statements of
    :func:`fireball.dynamics.declaration`, in C from :mod:`fireball.native`,
    in the row loop of ``fireball_report_<model>`` (``fireball_report_1d``
    for ``1d``).
    Sample i reads t[i * ts], q[i * qr + k * qc] and v[i * vr + k * vc];
    the function writes to ``out`` the report's series, n values each,
    then the largest |x - x(0)| of each series and each one's first value."""
    from . import native

    functions = []
    for kind, series in _SERIES.items():
        columns, statements = dynamics.declaration(kind, series)
        inputs = {"t": "t[i * ts]", **{x: f"{a}[i * {a}r + {k} * {a}c]" for x, a, k in columns}}
        helpers, names, body, values = native.statement_block(inputs, statements, series)
        functions.append(_REPORT.substitute(
            model=kind.value, count=len(series), locals=names,
            body="\n".join(8 * " " + line for line in body), values=values))
    return helpers + "".join(functions)


def _doubles(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` and its address, or a C-ordered copy and the copy's where the
    address or a stride is not a whole number of doubles, which C cannot
    read in place."""
    address = a.ctypes.data
    if (address | a.strides[0] | a.strides[-1]) & 7:
        a = np.array(a, order="C")
        address = a.ctypes.data
    return a, address


@functools.cache
def _native_report():
    """The runner of :func:`report_source`'s one pass over a trajectory, or
    None where numpy serves the report, chosen on first use.  One info
    record says which, and why.

    ``run(kind, times, qs, qdots)`` reads the (n,) ``times`` and the (n, d)
    ``qs`` and ``qdots`` of a model ``kind`` in place, through their strides
    (:func:`_doubles` says which arrays it copies first), and raises
    ValueError for arrays of other shapes or types.  It returns the series of
    :func:`invariant_report` in its order, as (n,) arrays, and the largest
    deviation and the first value of each, as lists of floats."""
    from . import native
    try:
        library, how = native._library(report_source())
    except native.Unavailable as exc:
        log.info("invariant report: numpy, %s", exc)
        return None
    rows = [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong]  # q, qr, qc; v, vr, vc
    passes = {kind: getattr(library, f"fireball_report_{kind.value}") for kind in ModelKind}
    for report in passes.values():
        report.argtypes = [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_longlong, *rows, *rows,
                           ctypes.c_void_p]
        report.restype = None

    def run(kind, times, qs, qdots):
        n, d = len(times), kind.dim
        if not (times.shape == (n,) and qs.shape == qdots.shape == (n, d)
                and times.dtype == qs.dtype == qdots.dtype == np.float64):
            raise ValueError(f"times {times.shape} and rows {qs.shape}, {qdots.shape} are not "
                             f"(n,) and (n, {d}) float64 arrays")
        count = len(_SERIES[kind])
        (times, t), (qs, q), (qdots, v) = _doubles(times), _doubles(qs), _doubles(qdots)
        (ts,), (qr, qc), (vr, vc) = times.strides, qs.strides, qdots.strides
        out = array("d", bytes(8 * (count * n + 2 * count)))
        passes[kind](n, t, ts >> 3, q, qr >> 3, qc >> 3, v, vr >> 3, vc >> 3,
                     out.buffer_info()[0])
        block, tail = np.frombuffer(out, count=count * n), out[count * n:].tolist()
        return list(block.reshape(count, n)), tail[:count], tail[count:]

    log.info("invariant report: native, %s", how)
    return run


def invariant_report(traj: Trajectory) -> InvariantReport:
    """Evaluate every invariant defined for the trajectory's model and report
    the maximum relative drift of each along the samples."""
    if len(traj) == 0:
        raise DomainError("cannot report invariants of an empty trajectory")
    kind, qs, qdots = traj.kind, traj.qs, traj.qdots
    run = _native_report()
    if run is not None:
        rows, deviation, first = run(kind, traj.times, qs, qdots)
    else:
        with np.errstate(over="ignore"):  # P = inf gives V = 0
            rows = dynamics.evaluator(kind, _SERIES[kind])(traj.times, qs, qdots)
        # The largest deviation of every series in one pass over them stacked.
        series = np.array(rows)
        deviation = np.maximum.reduce(np.abs(series - series[:, :1]), axis=1).tolist()
        first = series[:, 0].tolist()
    values = dict(zip(_SERIES[kind], rows))
    drift = {name: d / max(abs(ref), 1.0 if name == "J" else 1e-300)
             for name, d, ref in zip(values, deviation, first)}
    return InvariantReport(kind=kind, times=traj.times, values=values, drift=drift)
