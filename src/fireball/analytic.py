"""Closed-form solutions and quadrature procedures.

The radial motion of the planar models decouples:

    r(t)      = sqrt(2 H (t - t0)^2 + I / H)
    ttilde(t) = int dt'/r^2 = arctan(sqrt(2/I) H (t - t0)) / sqrt(2 I)

and the angle obeys the 1-DOF energy law  I = (dphi/dttilde)^2 / 2 + U(phi).
The closed form of phi involves elliptic functions; here it is obtained by
adaptive integration of the equivalent second-order equation
phi'' = -U'(phi), which conserves I and reverses branch automatically at the
turning points U(phi) = I.

The 1-d model is solved exactly, and its degenerate Ermakov pairing with free
motion gives the nonlinear superposition law implemented at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoMotionError, UnsupportedModelError
from .models import ModelKind, State, radius, to_polar
from .integrate import solve_ode
from .invariants import (ELLIPTIC_POLAR_COEFF, ermakov_invariant,
                         itilde_invariant)
from .dynamics import energies


@dataclass(frozen=True)
class RadialSolution:
    """Parameters of the radial closed form: energy, invariant (I for 2d,
    Itilde for elliptic), and the time offset t0 of closest approach."""

    energy: float
    invariant: float
    t0: float = 0.0

    def __post_init__(self):
        if self.energy <= 0.0:
            raise DomainError(f"energy must be positive, got {self.energy}")
        if self.invariant <= 0.0:
            raise DomainError(f"invariant must be positive, got {self.invariant}")

    @classmethod
    def from_state(cls, state: State, kind: ModelKind) -> "RadialSolution":
        inv = _law_invariant(state, kind)
        H = energies(state, kind).hamiltonian
        _, r_rdot = radius(state.q, state.qdot, kind)
        return cls(energy=H, invariant=inv, t0=state.t - float(r_rdot) / (2.0 * H))


def _law_invariant(state: State, kind: ModelKind) -> float:
    """Invariant of the radial and angular laws: I for 2d, Itilde for elliptic."""
    if not kind.has_ermakov_invariant:
        raise UnsupportedModelError(
            f"radial solutions exist for 2d/elliptic models, not {kind.value!r}")
    if kind is ModelKind.ELLIPTIC_3D:
        return itilde_invariant(state)
    return ermakov_invariant(state, kind)


def radial(sol: RadialSolution, t):
    """(r, rdot) of the radial law at time(s) t."""
    t = np.asarray(t, dtype=float)
    dt = t - sol.t0
    r = np.sqrt(2.0 * sol.energy * dt ** 2 + sol.invariant / sol.energy)
    rdot = 2.0 * sol.energy * dt / r
    return r, rdot


def radial_3d(H: float, J: float, r0: float, t):
    """(r, rdot) of the 3-d law r^2 = 2 H t^2 - 2 J t + r0^2."""
    if H <= 0.0 or r0 <= 0.0:
        raise DomainError("3d radial law needs H > 0 and r0 > 0")
    t = np.asarray(t, dtype=float)
    r_sq = 2.0 * H * t ** 2 - 2.0 * J * t + r0 ** 2
    if np.any(r_sq <= 0.0):
        raise DomainError("r^2 <= 0 at a requested time; parameters unphysical")
    r = np.sqrt(r_sq)
    return r, (2.0 * H * t - J) / r


def time_reparam(sol: RadialSolution, t):
    """Reparametrized time ttilde(t) = int_{t0}^{t} dt'/r^2, in closed form."""
    t = np.asarray(t, dtype=float)
    H, inv = sol.energy, sol.invariant
    return np.arctan(math.sqrt(2.0 / inv) * H * (t - sol.t0)) / math.sqrt(2.0 * inv)


def angular_potential(phi, kind: ModelKind):
    """Effective angular potential U(phi) on (0, pi/2)."""
    phi = np.asarray(phi, dtype=float)
    if np.any((phi <= 0.0) | (phi >= math.pi / 2.0)):
        raise DomainError("phi must lie strictly inside (0, pi/2)")
    if kind is ModelKind.TWO_D:
        return 1.0 / (np.sin(phi) * np.cos(phi))
    if kind is ModelKind.ELLIPTIC_3D:
        return ELLIPTIC_POLAR_COEFF * (np.cos(phi) ** 2 * np.sin(phi)) ** (-2.0 / 3.0)
    raise UnsupportedModelError(
        f"angular motion is defined for 2d/elliptic models, not {kind.value!r}")


def _angular_potential_slope(phi: float, kind: ModelKind) -> float:
    if kind is ModelKind.TWO_D:
        s2 = math.sin(2.0 * phi)
        return -4.0 * math.cos(2.0 * phi) / (s2 * s2)
    c, s = math.cos(phi), math.sin(phi)
    w = c * c * s
    wprime = c * (c * c - 2.0 * s * s)
    return -(2.0 / 3.0) * ELLIPTIC_POLAR_COEFF * w ** (-5.0 / 3.0) * wprime


def angular_minimum(kind: ModelKind) -> tuple[float, float]:
    """(phi*, U(phi*)): location and value of the potential minimum."""
    if kind is ModelKind.TWO_D:
        return math.pi / 4.0, 2.0
    if kind is ModelKind.ELLIPTIC_3D:
        return math.atan(1.0 / math.sqrt(2.0)), 4.5
    raise UnsupportedModelError(str(kind))


@dataclass(frozen=True)
class AngularSolution:
    """Initial data of the angular quadrature: the invariant (I for 2d,
    Itilde for elliptic), the starting angle, and the starting branch sign."""

    invariant: float
    phi0: float
    sign0: int = 1

    def __post_init__(self):
        if not 0.0 < self.phi0 < math.pi / 2.0:
            raise DomainError(f"phi0 must lie strictly inside (0, pi/2), got {self.phi0}")
        if self.sign0 not in (-1, 1):
            raise DomainError(f"sign0 must be +1 or -1, got {self.sign0}")

    @classmethod
    def from_state(cls, state: State, kind: ModelKind) -> "AngularSolution":
        polar = to_polar(state, kind)
        inv = _law_invariant(state, kind)
        speed = polar.r ** 2 * polar.phidot
        return cls(invariant=inv, phi0=polar.phi, sign0=-1 if speed < 0.0 else 1)


def angular_quadrature(sol: AngularSolution, kind: ModelKind, ttilde_grid,
                       *, rel_tol: float = 1e-12, abs_tol: float = 1e-12):
    """Integrate the angular motion over a ttilde grid.

    Returns (phi, dphi/dttilde) arrays on the grid.  The pair conserves the
    invariant, and the branch sign reverses at each turning point
    U(phi) = invariant without leaving (0, pi/2).
    """
    grid = np.asarray(ttilde_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("ttilde grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("ttilde grid must be strictly increasing")
    if grid[0] < 0.0:
        raise DomainError("ttilde grid must start at or after 0")

    _, u_min = angular_minimum(kind)
    if sol.invariant < u_min - 1e-12:
        raise NoMotionError(
            f"invariant {sol.invariant} lies below the potential minimum {u_min}")
    v_sq = 2.0 * (sol.invariant - float(angular_potential(sol.phi0, kind)))
    if v_sq < -1e-9 * max(1.0, sol.invariant):
        raise NoMotionError(
            f"angle {sol.phi0} is classically forbidden for invariant {sol.invariant}")
    v0 = sol.sign0 * math.sqrt(max(v_sq, 0.0))

    def f(_t, y):
        return y[1], -_angular_potential_slope(y[0], kind)

    def guard(y):
        return 0.0 < y[0] < math.pi / 2.0

    sample = grid if grid[0] == 0.0 else np.concatenate([[0.0], grid])
    ys = solve_ode(f, 0.0, [sol.phi0, v0], sample,
                   rel_tol=rel_tol, abs_tol=abs_tol, guard=guard)
    if grid[0] != 0.0:
        ys = ys[1:]
    return ys[:, 0], ys[:, 1]


def one_d_solution(H: float, t0: float, t):
    """Exact solution (X, Xdot) of Xdd = 1/X^3 at energy H > 0."""
    if H <= 0.0:
        raise DomainError(f"H must be positive, got {H}")
    t = np.asarray(t, dtype=float)
    dt = t - t0
    X = np.sqrt(2.0 * H * dt ** 2 + 0.5 / H)
    return X, 2.0 * H * dt / X


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
