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
from .dynamics import accel, kinetic, potential


@dataclass(frozen=True)
class PointSymmetry:
    """Coefficient functions of a point symmetry and their exact partials.

    ``tau``/``eta``/``gauge`` map (t, q) to the coefficient values;
    ``tau_grad`` returns (d tau/dt, d tau/dq), ``eta_grad`` returns
    (d eta/dt, d eta/dq) with the matrix indexed [i, j] = d eta_i / d q_j,
    and ``gauge_grad`` mirrors ``tau_grad``.  Each takes a state's t and (d,)
    q or a batch's (n,) t and (n, d) q, and its values broadcast over the batch.
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
        eta_grad=lambda t, q: (np.zeros_like(q), np.eye(q.shape[-1])),
        gauge_grad=lambda t, q: (0.0, np.zeros_like(q)),
    )


def time_translation() -> PointSymmetry:
    """tau = 1, eta = 0, gauge = 0; its Noether invariant is the energy."""
    return PointSymmetry(
        tau=lambda t, q: 1.0,
        eta=lambda t, q: np.zeros_like(q),
        gauge=lambda t, q: 0.0,
        tau_grad=lambda t, q: (0.0, np.zeros_like(q)),
        eta_grad=lambda t, q: (np.zeros_like(q), np.zeros((q.shape[-1],) * 2)),
        gauge_grad=lambda t, q: (0.0, np.zeros_like(q)),
    )


def _prolongation(sym: PointSymmetry, t, q, qd):
    """tau, eta, taudot, etadot, gauge value and gauge-dot at states (t, q,
    qd): one state, or a batch along the leading axis."""
    tau = sym.tau(t, q)
    eta = np.asarray(sym.eta(t, q), dtype=float)
    tau_t, tau_q = sym.tau_grad(t, q)
    eta_t, eta_q = sym.eta_grad(t, q)
    gauge = sym.gauge(t, q)
    gauge_t, gauge_q = sym.gauge_grad(t, q)
    taudot = tau_t + np.sum(tau_q * qd, axis=-1)
    etadot = eta_t + np.sum(eta_q * qd[..., None, :], axis=-1)
    gaugedot = gauge_t + np.sum(gauge_q * qd, axis=-1)
    return tau, eta, taudot, etadot, gauge, gaugedot


def _lagrangian(qs, qdots, kind: ModelKind):
    return kinetic(qdots, kind) - potential(qs, kind)


def _noether_residual(kind: ModelKind, qd, L, qdd, eta, taudot, etadot, gaugedot):
    """G1[L] + taudot L - gauge-dot of a symmetry with the given prolongation,
    with dL/dq = M qdd on shell (-grad V), p = M qdot and dL/dt = 0."""
    g1_L = np.sum(eta * (kind.weights * qdd), axis=-1) \
        + np.sum((etadot - np.expand_dims(taudot, -1) * qd) * (kind.weights * qd), axis=-1)
    return g1_L + taudot * L - gaugedot


def _noether_invariant(kind: ModelKind, qd, L, tau, eta, gauge):
    """J = tau (qd.p - L) - eta.p + gauge with p = M qdot."""
    p = kind.weights * qd
    return tau * (np.sum(qd * p, axis=-1) - L) - np.sum(eta * p, axis=-1) + gauge


def noether_residual_values(sym: PointSymmetry, kind: ModelKind, ts, qs, qdots):
    """:func:`noether_condition_residual` at (n,) ``ts``, (n, d) ``qs`` and ``qdots``."""
    _, eta, taudot, etadot, _, gaugedot = _prolongation(sym, ts, qs, qdots)
    return _noether_residual(kind, qdots, _lagrangian(qs, qdots, kind), accel(qs, kind),
                             eta, taudot, etadot, gaugedot)


def noether_invariant_values(sym: PointSymmetry, kind: ModelKind, ts, qs, qdots):
    """Conserved quantity J = tau (qd.p - L) - eta.p + gauge of the symmetry
    at (n,) ``ts``, (n, d) ``qs`` and ``qdots``, with p = M qdot."""
    return _noether_invariant(kind, qdots, _lagrangian(qs, qdots, kind), sym.tau(ts, qs),
                              np.asarray(sym.eta(ts, qs), dtype=float), sym.gauge(ts, qs))


def noether_condition_residual(sym: PointSymmetry, kind: ModelKind,
                               state: State) -> float:
    """Residual of G1[L] + taudot L - gauge-dot at the given phase point.

    Vanishes (to rounding) for a Noether symmetry of the model's Lagrangian.
    """
    check_state(state, kind)
    # the batch form on a row of one, so that it rounds as the batch does
    return float(noether_residual_values(sym, kind, np.array([state.t]), state.q[None],
                                         state.qdot[None])[0])


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


def dynamical_symmetry_values(tau, ts, qs, qdots):
    """The Noether condition of the 2d model's dynamical symmetry at (n,)
    ``ts``, (n, 2) ``qs`` and ``qdots``.

    The symmetry is velocity-dependent: coordinates shift by tau qd plus a
    rotation-like term with parameter w = X Yd - Y Xd, time shifts by the
    free function ``tau`` of (t, q, qdot), and the gauge is the standard
    tau L - w^2/2 + X/Y + Y/X.  ``tau`` takes ``ts``, ``qs`` and ``qdots``
    and indexes their last axis, as q[..., 0].  Only tau's value at the
    states enters: its total derivative taudot enters etadot as taudot qd
    and gauge-dot as taudot L, which the condition's etadot - taudot qd and
    taudot L - gauge-dot cancel exactly, so both are written without taudot.

    Returns ``(residual, invariant)``: the residual of the gauged Noether
    condition (accelerations substituted from the equations of motion) and
    the Noether invariant of the transformation, which equals the Ermakov
    invariant for every choice of tau.
    """
    kind = ModelKind.TWO_D
    (X, Y), (Xd, Yd) = qs.T, qdots.T
    qdd = accel(qs, kind)
    Xdd, Ydd = qdd.T
    w = X * Yd - Y * Xd
    wdot = X * Ydd - Y * Xdd

    tau_value = np.asarray(tau(ts, qs, qdots), dtype=float)
    eta = np.stack([tau_value * Xd + Y * w, tau_value * Yd - X * w], axis=-1)
    etadot = np.stack([tau_value * Xdd + Yd * w + Y * wdot,
                       tau_value * Ydd - Xd * w - X * wdot], axis=-1)

    L = _lagrangian(qs, qdots, kind)
    Ldot = 2.0 * np.sum(qdots * qdd, axis=-1)  # qd.dL/dq + qdd.p, with dL/dq = qdd, p = qd
    g = tau_value * L - 0.5 * w ** 2 + X / Y + Y / X
    gdot = tau_value * Ldot - w * wdot - w / Y ** 2 + w / X ** 2
    return (_noether_residual(kind, qdots, L, qdd, eta, 0.0, etadot, gdot),
            _noether_invariant(kind, qdots, L, tau_value, eta, g))
