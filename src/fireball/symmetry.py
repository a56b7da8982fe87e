"""Verification of the symmetry structure of the reduced models.

A symmetry gives its prolongation along solutions at a batch of states:
tau, eta, the gauge and their total time derivatives, from t, q, qdot, the
accelerations and L = T - V (declared in :mod:`fireball.invariants`).  A
point symmetry tau d/dt + eta . d/dq (:class:`PointSymmetry`) derives it
from exact partials, the 2d model's velocity-dependent symmetry
(:class:`ErmakovSymmetry`) from its free function tau.  :func:`noether_terms`
gives each one's residual of the Noether condition G1[L] + taudot L =
gauge-dot, which a genuine symmetry meets to rounding, and its Noether
invariant.  Nothing here takes a numerical derivative.

All models admit the scaling symmetry tau = 2 t, eta = q (gauge 0).  Its
finite form t -> beta^2 t, q -> beta q (:func:`scaled_trajectory`) maps
solutions to solutions because the force is homogeneous of degree -3: by
the chain rule the image's accelerations are accel(q) / beta^3, which
:func:`ode_residual` compares with the force at the image's samples.  A
function of the state is invariant under the map exactly when the
generator annihilates it, so the finite map checks that too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .models import ModelKind, State, check_state
from .integrate import Trajectory
from .dynamics import accel
from .invariants import _evaluate


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

    def prolongation(self, kind, t, q, qd, qdd, L):
        """tau, eta, taudot, etadot, gauge and gauge-dot at states (t, q, qd):
        one state, or a batch along the leading axis.  The total derivatives
        need neither the accelerations ``qdd`` nor ``L``."""
        tau_t, tau_q = self.tau_grad(t, q)
        eta_t, eta_q = self.eta_grad(t, q)
        gauge_t, gauge_q = self.gauge_grad(t, q)
        return (self.tau(t, q), np.asarray(self.eta(t, q), dtype=float),
                tau_t + np.sum(tau_q * qd, axis=-1),
                eta_t + np.sum(eta_q * qd[..., None, :], axis=-1),
                self.gauge(t, q), gauge_t + np.sum(gauge_q * qd, axis=-1))


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


@dataclass(frozen=True)
class ErmakovSymmetry:
    """The 2d model's velocity-dependent symmetry, whose Noether invariant is
    the Ermakov invariant I for every choice of the free function ``tau``.

    Coordinates shift by tau qd plus a rotation-like term with parameter
    w = X Yd - Y Xd, time by ``tau`` of (t, q, qdot), and the gauge is
    tau L - w^2/2 + X/Y + Y/X.  ``tau`` takes a state's or a batch's t, q
    and qdot and indexes their last axis, as q[..., 0].
    """

    tau: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def prolongation(self, kind, t, q, qd, qdd, L):
        """As :meth:`PointSymmetry.prolongation`, with taudot given as 0 and
        left out of etadot and gauge-dot.  taudot enters them as taudot qd
        and taudot L, which the condition's etadot - taudot qd and
        taudot L - gauge-dot cancel exactly, so only tau's value counts."""
        if kind is not ModelKind.TWO_D:
            raise UnsupportedModelError(
                f"the Ermakov symmetry is the 2d model's, not {kind.value!r}'s")
        (X, Y), (Xd, Yd), (Xdd, Ydd) = q.T, qd.T, qdd.T
        w = X * Yd - Y * Xd
        wdot = X * Ydd - Y * Xdd
        tau = np.asarray(self.tau(t, q, qd), dtype=float)
        eta = np.stack([tau * Xd + Y * w, tau * Yd - X * w], axis=-1)
        etadot = np.stack([tau * Xdd + Yd * w + Y * wdot,
                           tau * Ydd - Xd * w - X * wdot], axis=-1)
        Ldot = 2.0 * np.sum(qd * qdd, axis=-1)  # qd.dL/dq + qdd.p, with dL/dq = qdd, p = qd
        gauge = tau * L - 0.5 * w ** 2 + X / Y + Y / X
        return (tau, eta, 0.0, etadot, gauge,
                tau * Ldot - w * wdot - w / Y ** 2 + w / X ** 2)


def noether_terms(symmetries, kind: ModelKind, ts, qs, qdots):
    """The (residual, invariant) pair of each of ``symmetries`` at (n,)
    ``ts``, (n, d) ``qs`` and ``qdots``, or at one state, evaluating the
    accelerations and L once: the residual G1[L] + taudot L - gauge-dot with
    dL/dq = M qdd on shell (-grad V), p = M qdot and dL/dt = 0, and the
    invariant J = tau (qd.p - L) - eta.p + gauge."""
    qdds = accel(qs, kind)
    L = _evaluate(kind, "L", None, qs, qdots)
    p, dL_dq = kind.weights * qdots, kind.weights * qdds
    pairs = []
    for sym in symmetries:
        tau, eta, taudot, etadot, gauge, gaugedot = sym.prolongation(kind, ts, qs, qdots, qdds, L)
        g1_L = np.sum(eta * dL_dq, axis=-1) \
            + np.sum((etadot - np.expand_dims(taudot, -1) * qdots) * p, axis=-1)
        pairs.append((g1_L + taudot * L - gaugedot,
                      tau * (np.sum(qdots * p, axis=-1) - L) - np.sum(eta * p, axis=-1) + gauge))
    return pairs


def noether_condition_residual(sym: PointSymmetry | ErmakovSymmetry, kind: ModelKind,
                               state: State) -> float:
    """Residual of G1[L] + taudot L - gauge-dot at the given phase point.

    Vanishes (to rounding) for a Noether symmetry of the model's Lagrangian.
    """
    check_state(state, kind)
    # the batch form on a row of one, so that it rounds as the batch does
    [(residual, _)] = noether_terms([sym], kind, np.array([state.t]), state.q[None],
                                    state.qdot[None])
    return float(residual[0])


def scaled_trajectory(traj: Trajectory, beta: float) -> Trajectory:
    """Image of a trajectory under t -> beta^2 t, q -> beta q.

    The result solves the same model equations (the map is the finite form of
    the scaling symmetry); velocities transform as qdot -> qdot / beta.
    Raises :class:`DomainError` for a beta that is not positive and finite,
    or whose image overflows.
    """
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    try:
        with np.errstate(over="raise"):
            return Trajectory(kind=traj.kind, times=beta ** 2 * traj.times,
                              qs=beta * traj.qs, qdots=traj.qdots / beta)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"beta = {beta} maps the trajectory beyond the largest float") from None


def ode_residual(traj: Trajectory, qdds) -> float:
    """Largest deviation of given accelerations ``qdds`` of the samples from
    the model's force at them, relative to the force's largest component."""
    force = accel(traj.qs, traj.kind)
    return float(np.max(np.abs(qdds - force)) / np.max(np.abs(force)))
