"""First integrals of the reduced systems and drift reporting.

Besides the energy H, the planar models carry the Ermakov invariant

    I = (X Yd - Y Xd)^2 / 2 + F(Y/X) + G(X/Y)

with coupling antiderivatives F, G fixed by the model (F(s) = G(s) = s for
the true 2-d system), and every model carries the time-dependent scaling
invariant J = 2 t H - q . p.  Structural lower bounds: I >= 2 for the 2-d
model (AM-GM on Y/X + X/Y) and I >= 9/4 for the elliptic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .models import ModelKind, PolarState, State, check_state
from .integrate import Trajectory
from .analytic import angular_potential
from . import dynamics


def hamiltonian_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Energy H on a batch of states; qs/qdots are (n, d)."""
    return dynamics.kinetic(qdots, kind) + dynamics.potential(qs, kind)


def ermakov_values(qs, qdots, kind: ModelKind) -> np.ndarray:
    """Ermakov invariant I on a batch of planar states; qs/qdots are (n, 2)."""
    if not kind.has_ermakov_invariant:
        raise UnsupportedModelError(
            f"the Ermakov invariant is defined for 2d/elliptic models, not {kind.value!r}")
    qs = np.asarray(qs, dtype=float)
    qdots = np.asarray(qdots, dtype=float)
    spec = two_d_coupling() if kind is ModelKind.TWO_D else elliptic_coupling()
    return _ermakov(spec, qs[..., 0], qs[..., 1], qdots[..., 0], qdots[..., 1])


def noether_values(ts, qs, qdots, kind: ModelKind) -> np.ndarray:
    """Scaling invariant J = 2 t H - q . p on a batch of states, p = M qdot."""
    ts = np.asarray(ts, dtype=float)
    qs = np.asarray(qs, dtype=float)
    qdots = np.asarray(qdots, dtype=float)
    return _noether(ts, qs, qdots, kind, hamiltonian_values(qs, qdots, kind))


def _noether(ts, qs, qdots, kind: ModelKind, H) -> np.ndarray:
    """J from the energy H already evaluated on the same states."""
    return 2.0 * ts * H - np.sum(qs * (kind.weights * qdots), axis=-1)


def ermakov_invariant(state: State, kind: ModelKind) -> float:
    """Ermakov invariant I of a planar state."""
    check_state(state, kind)
    return float(ermakov_values(state.q, state.qdot, kind))


def itilde_invariant(state: State) -> float:
    """Doubled Ermakov invariant of the elliptic model (its natural polar form)."""
    return 2.0 * ermakov_invariant(state, ModelKind.ELLIPTIC_3D)


def noether_invariant(state: State, kind: ModelKind) -> float:
    """Time-dependent scaling invariant J at the given state."""
    check_state(state, kind)
    return float(noether_values(state.t, state.q, state.qdot, kind))


@dataclass(frozen=True)
class GeneralErmakovSpec:
    """Coupling pair of a general Ermakov system (frequency fixed to zero),
    given by the antiderivatives ``F``/``G`` of its couplings as functions of
    Y/X and X/Y respectively.  ``G`` may be None for the degenerate pair where
    the second equation is free motion (then Y is unconstrained in sign and
    the X/Y term is absent).
    """

    F: Callable[[float], float]
    G: Callable[[float], float] | None


def two_d_coupling() -> GeneralErmakovSpec:
    return GeneralErmakovSpec(F=lambda s: s, G=lambda s: s)


def elliptic_coupling() -> GeneralErmakovSpec:
    return GeneralErmakovSpec(F=lambda s: 0.75 * s ** (4.0 / 3.0),
                              G=lambda s: 1.5 * s ** (2.0 / 3.0))


def pinney_coupling() -> GeneralErmakovSpec:
    """Pair whose first member is the zero-frequency Pinney equation and whose
    second member is free motion (no X/Y coupling)."""
    return GeneralErmakovSpec(F=lambda s: 0.5 * s * s, G=None)


def _ermakov(spec: GeneralErmakovSpec, X, Y, Xdot, Ydot):
    w = X * Ydot - Y * Xdot
    value = 0.5 * w ** 2 + spec.F(Y / X)
    return value if spec.G is None else value + spec.G(X / Y)


def general_ermakov_invariant(spec: GeneralErmakovSpec, X: float, Y: float,
                              Xdot: float, Ydot: float) -> float:
    """Evaluate the invariant of a general Ermakov pair at a phase point."""
    if X <= 0.0:
        raise DomainError(f"X must be strictly positive, got {X}")
    if spec.G is not None and Y <= 0.0:
        raise DomainError(f"Y must be strictly positive for this pair, got {Y}")
    return float(_ermakov(spec, X, Y, Xdot, Ydot))


def polar_invariants(polar: PolarState, kind: ModelKind) -> tuple[float, float]:
    """(H, invariant) in polar variables: the invariant is
    (r^2 phidot)^2 / 2 + U(phi) and H = rdot^2 / 2 + invariant / r^2.

    Returns (H, I) for the 2-d model and (H, Itilde) for the elliptic one;
    both match the cartesian evaluations after coordinate conversion.
    """
    inv = 0.5 * (polar.r * polar.r * polar.phidot) ** 2 \
        + float(angular_potential(polar.phi, kind))
    return 0.5 * polar.rdot ** 2 + inv / polar.r ** 2, inv


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


def _drift(series: np.ndarray, floor: float) -> float:
    ref = series[0]
    return float(np.max(np.abs(series - ref)) / max(abs(ref), floor))


def invariant_report(traj: Trajectory) -> InvariantReport:
    """Evaluate every invariant defined for the trajectory's model and report
    the maximum relative drift of each along the samples."""
    if len(traj) == 0:
        raise DomainError("cannot report invariants of an empty trajectory")
    kind = traj.kind
    H = hamiltonian_values(traj.qs, traj.qdots, kind)
    values: dict[str, np.ndarray] = {
        "H": H, "J": _noether(traj.times, traj.qs, traj.qdots, kind, H)}
    if kind.has_ermakov_invariant:
        values["I"] = ermakov_values(traj.qs, traj.qdots, kind)
    if kind is ModelKind.ELLIPTIC_3D:
        values["Itilde"] = 2.0 * values["I"]
    drift = {name: _drift(series, floor=1.0 if name == "J" else 1e-300)
             for name, series in values.items()}
    return InvariantReport(kind=kind, times=traj.times, values=values, drift=drift)
