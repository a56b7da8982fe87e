"""Numerical verification of the symmetry structure of the reduced models.

A point symmetry is a vector field tau d/dt + eta . d/dq on (t, q) space;
its first extension acts on velocities with coefficient (etadot - taudot qd).
The Noether condition  G1[L] + taudot L = gauge-dot  is evaluated with exact
partial derivatives of L (they are elementary), so the residual of a genuine
symmetry sits at rounding level.  Finite differences are used only where the
object being differentiated is caller-supplied: arbitrary scalar fields in
:func:`extended_generator_apply`, and the free function tau of the dynamical
symmetry behind the Ermakov invariant.

All models admit the scaling symmetry tau = 2 t, eta = q (gauge 0), whose
finite form t -> beta^2 t, q -> beta q maps solutions to solutions; see
:func:`scaled_trajectory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .models import ModelKind, State, check_state
from .integrate import Trajectory
from .dynamics import accel, canonical_momenta, energies

FieldFn = Callable[[float, np.ndarray, np.ndarray], float]


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


def noether_condition_residual(sym: PointSymmetry, kind: ModelKind,
                               state: State) -> float:
    """Residual of G1[L] + taudot L - gauge-dot at the given phase point.

    Vanishes (to rounding) for a Noether symmetry of the model's Lagrangian.
    """
    check_state(state, kind)
    _, eta, taudot, etadot, _, gaugedot = _prolongation(sym, state)
    qd = state.qdot
    L = energies(state, kind).lagrangian
    dL_dq = kind.weights * accel(state.q, kind)  # -grad V = M qdd
    p = canonical_momenta(state, kind)
    g1_L = float(eta @ dL_dq + (etadot - taudot * qd) @ p)  # dL/dt = 0
    return g1_L + taudot * L - gaugedot


def noether_invariant_from(sym: PointSymmetry, kind: ModelKind,
                           state: State) -> float:
    """Conserved quantity J = tau (qd.p - L) - eta.p + gauge of the symmetry."""
    check_state(state, kind)
    tau, eta, _, _, gauge, _ = _prolongation(sym, state)
    qd = state.qdot
    L = energies(state, kind).lagrangian
    p = canonical_momenta(state, kind)
    return tau * (float(qd @ p) - L) - float(eta @ p) + gauge


def extended_generator_apply(sym: PointSymmetry, field: FieldFn,
                             state: State) -> float:
    """Apply the first extended generator to a scalar field of (t, q, qdot).

    The field's partial derivatives are taken by central differences with a
    relative step of 1e-6, so results are reliable to about that level.
    """
    t, q, qd = state.t, state.q, state.qdot
    tau, eta, taudot, etadot, _, _ = _prolongation(sym, state)

    def d_dt():
        h = 1e-6 * max(1.0, abs(t))
        return (field(t + h, q, qd) - field(t - h, q, qd)) / (2.0 * h)

    def d_dq(i):
        h = min(1e-6 * max(1.0, abs(q[i])), 0.5 * q[i])
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        return (field(t, qp, qd) - field(t, qm, qd)) / (2.0 * h)

    def d_dqd(i):
        h = 1e-6 * max(1.0, abs(qd[i]))
        vp, vm = qd.copy(), qd.copy()
        vp[i] += h
        vm[i] -= h
        return (field(t, q, vp) - field(t, q, vm)) / (2.0 * h)

    vel_coeff = etadot - taudot * qd
    total = tau * d_dt()
    for i in range(len(q)):
        total += eta[i] * d_dq(i) + vel_coeff[i] * d_dqd(i)
    return float(total)


def scaled_trajectory(traj: Trajectory, beta: float) -> Trajectory:
    """Image of a trajectory under t -> beta^2 t, q -> beta q.

    The result solves the same model equations (the map is the finite form of
    the scaling symmetry); velocities transform as qdot -> qdot / beta.
    """
    if beta <= 0.0:
        raise DomainError(f"beta must be strictly positive, got {beta}")
    return Trajectory(kind=traj.kind, times=beta ** 2 * traj.times,
                      qs=beta * traj.qs, qdots=traj.qdots / beta,
                      config=traj.config)


def ode_residual(traj: Trajectory) -> float:
    """Max deviation between finite-difference accelerations of the samples
    and the model right-hand side (uniform sample grid required)."""
    if len(traj) < 3:
        raise DomainError("need at least 3 samples for an acceleration stencil")
    dt = np.diff(traj.times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise DomainError("ode_residual requires a uniform sample grid")
    h = dt[0]
    fd_acc = (traj.qs[2:] - 2.0 * traj.qs[1:-1] + traj.qs[:-2]) / h ** 2
    return float(np.max(np.abs(fd_acc - accel(traj.qs[1:-1], traj.kind))))


@dataclass(frozen=True)
class DynamicalSymmetry:
    """Velocity-dependent symmetry of the 2-d model behind the Ermakov
    invariant: coordinates shift by tau qd plus a rotation-like term with
    parameter w = X Yd - Y Xd, time shifts by the free function tau.

    ``gauge`` is a callable of (t, q, qdot); None selects the standard gauge
    tau L - w^2/2 + X/Y + Y/X.
    """

    tau: FieldFn
    gauge: FieldFn | None = None


def _flow_derivative(fn: FieldFn, state: State, qdd: np.ndarray,
                     delta: float = 1e-6) -> float:
    """Total time derivative of fn along the flow, by central differencing
    the trajectory germ t -> (t + s, q + s qd + s^2 qdd / 2, qd + s qdd)."""
    t, q, qd = state.t, state.q, state.qdot

    def at(s):
        return fn(t + s, q + s * qd + 0.5 * s * s * qdd, qd + s * qdd)

    return (at(delta) - at(-delta)) / (2.0 * delta)


def dynamical_symmetry_check(sym: DynamicalSymmetry | FieldFn,
                             state: State,
                             kind: ModelKind = ModelKind.TWO_D) -> tuple[float, float]:
    """Evaluate the Noether condition for the dynamical symmetry on shell.

    Returns ``(residual, invariant)``: the residual of the gauged Noether
    condition (accelerations substituted from the equations of motion) and
    the Noether invariant of the transformation, which equals the Ermakov
    invariant for every choice of tau when the standard gauge is used.
    """
    if kind is not ModelKind.TWO_D:
        raise UnsupportedModelError(
            "the dynamical Ermakov symmetry is implemented for the 2d model")
    check_state(state, kind)
    if not isinstance(sym, DynamicalSymmetry):
        sym = DynamicalSymmetry(tau=sym)

    t, q, qd = state.t, state.q, state.qdot
    X, Y = q
    Xd, Yd = qd
    qdd = accel(q, kind)
    Xdd, Ydd = qdd
    w = X * Yd - Y * Xd
    wdot = X * Ydd - Y * Xdd

    tau = float(sym.tau(t, q, qd))
    taudot = _flow_derivative(sym.tau, state, qdd)

    eta = np.array([tau * Xd + Y * w, tau * Yd - X * w])
    etadot = np.array([taudot * Xd + tau * Xdd + Yd * w + Y * wdot,
                       taudot * Yd + tau * Ydd - Xd * w - X * wdot])

    pair = energies(state, kind)
    L = pair.lagrangian
    dL_dq = qdd  # -grad V (unit kinetic weights)
    p = qd  # canonical momenta of the 2d model
    Ldot = float(qd @ dL_dq + qdd @ p)

    if sym.gauge is None:
        gauge = tau * L - 0.5 * w ** 2 + X / Y + Y / X
        gaugedot = taudot * L + tau * Ldot - w * wdot - w / Y ** 2 + w / X ** 2
    else:
        gauge = float(sym.gauge(t, q, qd))
        gaugedot = _flow_derivative(sym.gauge, state, qdd)

    g1_L = float(eta @ dL_dq + (etadot - taudot * qd) @ p)
    residual = g1_L + taudot * L - gaugedot
    invariant = tau * (float(qd @ p) - L) - float(eta @ p) + gauge
    return residual, invariant
