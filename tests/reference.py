"""Independent references the tests check ``fireball`` against, and the
unit and polar maps the tests build their states with.

- The general Ermakov pair (Ermakov 1880) and the degenerate pairing of the
  1-d model with free motion, whose nonlinear superposition law (Pinney
  1950) :func:`superposition_1d` gives.
- The single-State Ermakov invariant I, with its planar-model check.
- The point-wise fluid fields of the Gaussian profile (:func:`fields_at`),
  from which the hydro tests rebuild ``pde_residuals`` term by term.
- The maps to and from laboratory units and the inverse of ``polar_values``,
  and the state of the angular field at a given angle and rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fireball import DomainError, ModelKind, PhysicalParams, State
from fireball.hydro import _profile
from fireball.invariants import ermakov_values
from fireball.models import _require_planar, check_state, reference_scales


def nondimensionalize(params: PhysicalParams, state: State, kind: ModelKind) -> State:
    """Map a dimensional state to the dimensionless variables of ``kind``."""
    check_state(state, kind)
    length, time = reference_scales(params, kind)
    vel = length / time  # = sqrt(T0/m)
    return State(t=state.t / time, q=state.q / length, qdot=state.qdot / vel)


def dimensionalize(params: PhysicalParams, state: State, kind: ModelKind) -> State:
    """Inverse of :func:`nondimensionalize`."""
    check_state(state, kind)
    length, time = reference_scales(params, kind)
    vel = length / time
    return State(t=state.t * time, q=state.q * length, qdot=state.qdot * vel)


def to_cartesian(r: float, phi: float, rdot: float, phidot: float, kind: ModelKind,
                 t: float = 0.0) -> State:
    """Inverse of :func:`fireball.models.polar_values` on one state; ``t``
    restores the time stamp."""
    _require_planar(kind)
    c, s = math.cos(phi), math.sin(phi)
    stretch = np.sqrt(kind.weights)
    q = np.array([r * c, r * s]) / stretch
    qdot = np.array([rdot * c - r * phidot * s, rdot * s + r * phidot * c]) / stretch
    return State(t=t, q=q, qdot=qdot)


def angular_start(phi: float, rate: float) -> list[float]:
    """The state (u, u') of ``fireball.dynamics._angular_field`` at the
    angle phi moving at dphi/dttilde = rate: u = (cos phi, sin phi) and
    u' = rate (-sin phi, cos phi)."""
    c, s = math.cos(phi), math.sin(phi)
    return [c, s, -s * rate, c * rate]


def ermakov_invariant(state: State, kind: ModelKind) -> float:
    """Ermakov invariant I of a planar state."""
    check_state(state, kind)
    return float(ermakov_values(state.q, state.qdot, kind))


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


def pinney_coupling() -> GeneralErmakovSpec:
    """Pair whose first member is the zero-frequency Pinney equation and whose
    second member is free motion (no X/Y coupling)."""
    return GeneralErmakovSpec(F=lambda s: 0.5 * s * s, G=None)


def general_ermakov_invariant(spec: GeneralErmakovSpec, X: float, Y: float,
                              Xdot: float, Ydot: float) -> float:
    """Evaluate the invariant of a general Ermakov pair at a phase point."""
    if X <= 0.0:
        raise DomainError(f"X must be strictly positive, got {X}")
    if spec.G is not None and Y <= 0.0:
        raise DomainError(f"Y must be strictly positive for this pair, got {Y}")
    value = 0.5 * (X * Ydot - Y * Xdot) ** 2 + spec.F(Y / X)
    return float(value if spec.G is None else value + spec.G(X / Y))


def superposition_1d(invariant: float, t0: float, t):
    """Nonlinear superposition of the degenerate 1-d Ermakov pair.

    Pairs the particular X = sqrt((t - t0)^2 + 1) (energy 1/2) with the free
    motion Y; returns (u, tau, Y) with u = Y/X = sqrt(2 I) sin(tau),
    tau = arctan(t - t0) and Y = sqrt(2 I) (t - t0).
    """
    if invariant <= 0.0:
        raise DomainError(f"invariant must be positive, got {invariant}")
    t = np.asarray(t, dtype=float)
    dt = t - t0
    tau = np.arctan(dt)
    amp = math.sqrt(2.0 * invariant)
    return amp * np.sin(tau), tau, amp * dt


@dataclass(frozen=True)
class FluidFields:
    """Local fluid quantities at one spatial point."""

    n: float
    v: np.ndarray
    T: float
    p: float
    eps: float


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
