"""First integrals of the reduced systems and drift reporting.

Every model carries the energy H, the scaling invariant J = 2 t H - q . p
and, V being homogeneous of degree -2, the radial invariant of the
Lagrange-Jacobi identity, C = r^2 H - (r rdot)^2 / 2 with r^2 = sum(M q^2).
Its one implementation is the form Lagrange's identity gives on
u = sqrt(M) q, free of the cancellation of those two terms on late states:

    C = 1/2 sum_{i<j} M_i M_j (q_i qdot_j - q_j qdot_i)^2 + r^2 V(q).

The sum runs over the pairs i < j alone, each term a_ij = (M_i M_j c_ij)
c_ij with c_ij = q_i qdot_j - q_j qdot_i, grouped as numpy's sum of the full
antisymmetric matrix grouped them (each pair twice, a zero diagonal):

    2d: 0.25 (a01 + a01) + r^2 V
    3d: 0.25 ((a01 + (a02 + a01)) + (a12 + (a02 + a12))) + r^2 V

This order keeps every bit of the values the full-matrix sum gave, and so
every CSV and report written from them, while forming 3 terms in 3d
instead of 9 (1 instead of 4 in 2d) and no (n, d, d) array.  (Where some
q_i qdot_i overflows, the matrix's diagonal was inf - inf = NaN; the pairs
have no diagonal.)  The report (:func:`invariant_report`) evaluates V once,
without a positivity check (a Trajectory holds positive variances), derives
H, J and C from it, and takes every drift in one pass over the series.

C is 1/2 in 1d, H r0^2 - J^2/2 in 3d, the Ermakov invariant
I = (X Yd - Y Xd)^2 / 2 + Y/X + X/Y in 2d and Itilde = 2 I in the elliptic
model.  Structural lower bounds: I >= 2 for the 2-d model (AM-GM on
Y/X + X/Y) and I >= 9/4 for the elliptic one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .models import ModelKind, State, check_state, row_sum
from .integrate import Trajectory
from . import dynamics


def hamiltonian_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Energy H on a batch of states; qs/qdots are (n, d)."""
    return dynamics.kinetic(qdots, kind) + dynamics.potential(qs, kind)


def radial_invariant_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Radial invariant C on a batch of states; qs/qdots are (n, d) or (d,)."""
    qs, qdots = np.asarray(qs, dtype=float), np.asarray(qdots, dtype=float)
    return _radial_invariant(qs, qdots, kind, dynamics.potential(qs, kind))


def _radial_invariant(qs, qdots, kind: ModelKind, V) -> np.ndarray:
    """C from V at ``qs``, summed over the pairs i < j as the module says.
    r^2 V is summed as M q (q V), finite where r^2 overflows (q > 1e154)."""
    M = kind.weights

    def term(i, j):
        c = qs[..., i] * qdots[..., j] - qs[..., j] * qdots[..., i]
        return M[i] * M[j] * c * c

    if kind.dim == 1:
        pairs = 0.0
    elif kind.dim == 2:
        a01 = term(0, 1)
        pairs = a01 + a01
    else:
        a01, a02, a12 = term(0, 1), term(0, 2), term(1, 2)
        pairs = (a01 + (a02 + a01)) + (a12 + (a02 + a12))
    return 0.25 * pairs + row_sum(M * qs * (qs * V[..., None]))


def ermakov_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Ermakov invariant I on a batch of planar states; qs/qdots are (n, 2)."""
    if not kind.has_ermakov_invariant:
        raise UnsupportedModelError(
            f"the Ermakov invariant is defined for 2d/elliptic models, not {kind.value!r}")
    C = radial_invariant_values(qs, qdots, kind)
    return C if kind is ModelKind.TWO_D else 0.5 * C


def noether_values(ts, qs, qdots, kind: ModelKind) -> np.ndarray:
    """Scaling invariant J = 2 t H - q . p on a batch of states, p = M qdot."""
    ts = np.asarray(ts, dtype=float)
    qs = np.asarray(qs, dtype=float)
    qdots = np.asarray(qdots, dtype=float)
    return _noether(ts, qs, qdots, kind, hamiltonian_values(qs, qdots, kind))


def _noether(ts, qs, qdots, kind: ModelKind, H) -> np.ndarray:
    """J from the energy H already evaluated on the same states."""
    return 2.0 * ts * H - row_sum(qs * (kind.weights * qdots))


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


def invariant_report(traj: Trajectory) -> InvariantReport:
    """Evaluate every invariant defined for the trajectory's model and report
    the maximum relative drift of each along the samples."""
    if len(traj) == 0:
        raise DomainError("cannot report invariants of an empty trajectory")
    kind, qs, qdots = traj.kind, traj.qs, traj.qdots
    # Trajectory holds positive variances, so V needs no check of its own.
    with np.errstate(over="ignore"):  # P = inf gives V = 0, V's own underflow
        V = dynamics._potential(qs, kind)
    H = dynamics.kinetic(qdots, kind) + V
    values: dict[str, np.ndarray] = {"H": H, "J": _noether(traj.times, qs, qdots, kind, H)}
    if kind is not ModelKind.ONE_D:  # C is 1/2 identically in 1d
        C = _radial_invariant(qs, qdots, kind, V)
        if kind is ModelKind.TWO_D:
            values["I"] = C
        elif kind is ModelKind.THREE_D:
            values["C"] = C
        else:
            values["I"], values["Itilde"] = 0.5 * C, C
    # The largest deviation of every series in one pass over them stacked.
    series = np.array(list(values.values()))
    deviation = np.maximum.reduce(np.abs(series - series[:, :1]), axis=1).tolist()
    drift = {name: d / max(abs(ref), 1.0 if name == "J" else 1e-300)
             for name, d, ref in zip(values, deviation, series[:, 0].tolist())}
    return InvariantReport(kind=kind, times=traj.times, values=values, drift=drift)
