"""Verification of the symmetry structure of the reduced models.

A point symmetry is a vector field tau d/dt + eta . d/dq on (t, q) space;
its first extension acts on velocities with coefficient (etadot - taudot qd).
The residual of the Noether condition  G1[L] + taudot L = gauge-dot  and
the Noether invariant are each written once (:func:`_noether_residual`,
:func:`_noether_invariant`), for point symmetries and the 2d model's
velocity-dependent symmetry alike, with exact partial derivatives of L (they
are elementary), so the residual of a genuine symmetry sits at rounding
level.  Nothing here takes a numerical derivative: the dynamical symmetry's
free function tau enters the condition through its value alone.

All models admit the scaling symmetry tau = 2 t, eta = q (gauge 0).  Its
finite form t -> beta^2 t, q -> beta q (:func:`scaled_trajectory`) maps
solutions to solutions because the force is homogeneous of degree -3: by
the chain rule the image's accelerations are accel(q) / beta^3, which
:func:`ode_residual` compares with the force at the image's samples.  A
function of the state is invariant under the map exactly when the
generator annihilates it, so the finite map checks that too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .models import ModelKind, State, check_state
from .integrate import Trajectory
from .dynamics import accel, canonical_momenta, energies


@dataclass(frozen=True)
class PointSymmetry:
    """Coefficient functions of a point symmetry and their exact partials.

    ``tau``/``eta``/``gauge`` map (t, q) to the coefficient values;
    ``tau_grad`` returns (d tau/dt, d tau/dq), ``eta_grad`` returns
    (d eta/dt, d eta/dq) with the matrix indexed [i, j] = d eta_i / d q_j,
    and ``gauge_grad`` mirrors ``tau_grad``.
    """

    tau: Callable[[float, np.ndarray], float]
    eta: Callable[[float, np.ndarray], np.ndarray]
    gauge: Callable[[float, np.ndarray], float]
    tau_grad: Callable[[float, np.ndarray], tuple[float, np.ndarray]]
    eta_grad: Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]]
    gauge_grad: Callable[[float, np.ndarray], tuple[float, np.ndarray]]


def scaling_symmetry() -> PointSymmetry:
    """tau = 2 t, eta = q, gauge = 0 (valid for every model dimension)."""
    return PointSymmetry(
        tau=lambda t, q: 2.0 * t,
        eta=lambda t, q: np.array(q, dtype=float),
        gauge=lambda t, q: 0.0,
        tau_grad=lambda t, q: (2.0, np.zeros_like(q)),
        eta_grad=lambda t, q: (np.zeros_like(q), np.eye(len(q))),
        gauge_grad=lambda t, q: (0.0, np.zeros_like(q)),
    )


def time_translation() -> PointSymmetry:
    """tau = 1, eta = 0, gauge = 0; its Noether invariant is the energy."""
    return PointSymmetry(
        tau=lambda t, q: 1.0,
        eta=lambda t, q: np.zeros_like(q),
        gauge=lambda t, q: 0.0,
        tau_grad=lambda t, q: (0.0, np.zeros_like(q)),
        eta_grad=lambda t, q: (np.zeros_like(q), np.zeros((len(q), len(q)))),
        gauge_grad=lambda t, q: (0.0, np.zeros_like(q)),
    )


def _prolongation(sym: PointSymmetry, state: State):
    """tau, eta, taudot, etadot, gauge value and gauge-dot at the state."""
    t, q, qd = state.t, state.q, state.qdot
    tau = sym.tau(t, q)
    eta = np.asarray(sym.eta(t, q), dtype=float)
    tau_t, tau_q = sym.tau_grad(t, q)
    eta_t, eta_q = sym.eta_grad(t, q)
    gauge = sym.gauge(t, q)
    gauge_t, gauge_q = sym.gauge_grad(t, q)
    taudot = tau_t + float(np.dot(tau_q, qd))
    etadot = np.asarray(eta_t, dtype=float) + np.asarray(eta_q, dtype=float) @ qd
    gaugedot = gauge_t + float(np.dot(gauge_q, qd))
    return tau, eta, taudot, etadot, gauge, gaugedot


def _noether_residual(state: State, kind: ModelKind, L: float, p, qdd, eta,
                      taudot, etadot, gaugedot) -> float:
    """G1[L] + taudot L - gauge-dot of a symmetry with the given prolongation,
    with dL/dq = M qdd on shell (-grad V), p = M qdot and dL/dt = 0."""
    g1_L = float(eta @ (kind.weights * qdd) + (etadot - taudot * state.qdot) @ p)
    return g1_L + taudot * L - gaugedot


def _noether_invariant(state: State, L: float, p, tau, eta, gauge) -> float:
    """J = tau (qd.p - L) - eta.p + gauge."""
    return tau * (float(state.qdot @ p) - L) - float(eta @ p) + gauge


def noether_condition_residual(sym: PointSymmetry, kind: ModelKind,
                               state: State) -> float:
    """Residual of G1[L] + taudot L - gauge-dot at the given phase point.

    Vanishes (to rounding) for a Noether symmetry of the model's Lagrangian.
    """
    check_state(state, kind)
    _, eta, taudot, etadot, _, gaugedot = _prolongation(sym, state)
    return _noether_residual(state, kind, energies(state, kind).lagrangian,
                             canonical_momenta(state, kind), accel(state.q, kind),
                             eta, taudot, etadot, gaugedot)


def noether_invariant_from(sym: PointSymmetry, kind: ModelKind,
                           state: State) -> float:
    """Conserved quantity J = tau (qd.p - L) - eta.p + gauge of the symmetry."""
    check_state(state, kind)
    t, q = state.t, state.q
    return _noether_invariant(state, energies(state, kind).lagrangian,
                              canonical_momenta(state, kind), sym.tau(t, q),
                              np.asarray(sym.eta(t, q), dtype=float), sym.gauge(t, q))


def scaled_trajectory(traj: Trajectory, beta: float) -> Trajectory:
    """Image of a trajectory under t -> beta^2 t, q -> beta q.

    The result solves the same model equations (the map is the finite form of
    the scaling symmetry); velocities transform as qdot -> qdot / beta.
    """
    if beta <= 0.0:
        raise DomainError(f"beta must be strictly positive, got {beta}")
    return Trajectory(kind=traj.kind, times=beta ** 2 * traj.times,
                      qs=beta * traj.qs, qdots=traj.qdots / beta)


def ode_residual(traj: Trajectory, qdds) -> float:
    """Largest deviation of given accelerations ``qdds`` of the samples from
    the model's force at them, relative to the force's largest component."""
    force = accel(traj.qs, traj.kind)
    return float(np.max(np.abs(qdds - force)) / np.max(np.abs(force)))


def dynamical_symmetry_check(tau: Callable[[float, np.ndarray, np.ndarray], float],
                             state: State) -> tuple[float, float]:
    """Evaluate the Noether condition for the 2d model's dynamical symmetry.

    The symmetry is velocity-dependent: coordinates shift by tau qd plus a
    rotation-like term with parameter w = X Yd - Y Xd, time shifts by the
    free function ``tau`` of (t, q, qdot), and the gauge is the standard
    tau L - w^2/2 + X/Y + Y/X.  Only tau's value at the state enters: its
    total derivative taudot enters etadot as taudot qd and gauge-dot as
    taudot L, which the condition's etadot - taudot qd and taudot L -
    gauge-dot cancel exactly, so both are written without taudot.

    Returns ``(residual, invariant)``: the residual of the gauged Noether
    condition (accelerations substituted from the equations of motion) and
    the Noether invariant of the transformation, which equals the Ermakov
    invariant for every choice of tau.
    """
    kind = ModelKind.TWO_D
    check_state(state, kind)
    t, q, qd = state.t, state.q, state.qdot
    X, Y = q
    Xd, Yd = qd
    qdd = accel(q, kind)
    Xdd, Ydd = qdd
    w = X * Yd - Y * Xd
    wdot = X * Ydd - Y * Xdd

    tau_value = float(tau(t, q, qd))
    eta = np.array([tau_value * Xd + Y * w, tau_value * Yd - X * w])
    etadot = np.array([tau_value * Xdd + Yd * w + Y * wdot,
                       tau_value * Ydd - Xd * w - X * wdot])

    L = energies(state, kind).lagrangian
    Ldot = 2.0 * float(qd @ qdd)  # qd.dL/dq + qdd.p, with dL/dq = qdd, p = qd
    g = tau_value * L - 0.5 * w ** 2 + X / Y + Y / X
    gdot = tau_value * Ldot - w * wdot - w / Y ** 2 + w / X ** 2
    p = canonical_momenta(state, kind)
    return (_noether_residual(state, kind, L, p, qdd, eta, 0.0, etadot, gdot),
            _noether_invariant(state, L, p, tau_value, eta, g))
