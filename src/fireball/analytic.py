"""Closed-form solutions and quadrature procedures.

In every model V is homogeneous of degree -2 in q, so r^2 = sum(M q^2)
obeys the Lagrange-Jacobi identity d^2(r^2)/dt^2 = 4 H, and the radial law
of all four models is

    r(t)      = sqrt(2 H (t - t0)^2 + C / H),   C = r^2 H - (r rdot)^2 / 2,
    ttilde(t) = int dt'/r^2 = arctan(sqrt(2/C) H (t - t0)) / sqrt(2 C).

C is read from :mod:`fireball.invariants`, in Lagrange's-identity form
1/2 sum_{i<j} (u_i udot_j - u_j udot_i)^2 + r^2 V(q) on u = sqrt(M) q, whose
terms, unlike r^2 H and (r rdot)^2 / 2, do not grow and cancel as t grows.
C is I for 2d, Itilde for elliptic, 1/2 for 1d (where r = X) and
H r0^2 - J^2/2 for 3d.  For the planar models the angle of the stretched
polar coordinates obeys the 1-DOF energy law C = (dphi/dttilde)^2 / 2 + U(phi),
with U(phi) = V at the point of angle phi on the unit circle r = 1, and
minimum U = D^2/2 at tan(phi) = sqrt(M_Y/M_X).
The closed form of phi involves elliptic functions; here it is obtained by
adaptive integration of the equivalent second-order equation
phi'' = -U'(phi), which conserves C and reverses branch automatically at the
turning points U(phi) = C.  Its field is declared as source, which the
integrator's native loop inlines into its step, as it does the models'
fields, and its steps land on every sample of the ttilde grid, at rel/abs
tolerance 1e-14: on 200 random states per model (q in [0.6, 1.8], qdot in
[-0.8, 0.8], t to 25) (dphi/dttilde)^2 / 2 + U(phi) then stays within 2e-14
relative of C.

The degenerate Ermakov pairing of the 1-d model with free motion gives the
nonlinear superposition law implemented at the bottom.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError, NoMotionError
from .models import (ModelKind, PolarState, State, _require_planar, check_state,
                     radius, to_polar)
from .integrate import solve_ode
from .dynamics import POSITIVITY_FLOOR, FieldSource
from .invariants import hamiltonian_values, radial_invariant_values


@dataclass(frozen=True)
class RadialSolution:
    """Parameters of the radial law r^2 = 2 H (t - t0)^2 + C / H: the energy
    H, the radial invariant C, and the time t0 of closest approach."""

    energy: float
    invariant: float
    t0: float = 0.0

    def __post_init__(self):
        H, C = self.energy, self.invariant
        if not (0.0 < H < math.inf and 0.0 < C < math.inf and C / H < math.inf
                and math.sqrt(2.0 / C) * H < math.inf):
            raise DomainError("the radial law needs finite positive H, C, C/H and "
                              f"sqrt(2/C) H, got H={H!r}, C={C!r}")
        if not math.isfinite(self.t0):
            raise DomainError(f"the radial law needs a finite t0, got {self.t0!r}")

    @classmethod
    def from_state(cls, state: State, kind: ModelKind) -> "RadialSolution":
        """The law through ``state``; DomainError if a variance lies at or
        below POSITIVITY_FLOOR, where the integrator refuses every state, or
        if H, C or C/H over- or underflows."""
        check_state(state, kind)
        if min(state.q.tolist()) <= POSITIVITY_FLOOR:
            raise DomainError(f"variance at or below the positivity floor "
                              f"{POSITIVITY_FLOOR} in {state.q.tolist()}")
        with np.errstate(all="ignore"):  # what over- or underflows is refused
            H = hamiltonian_values(state.q, state.qdot, kind)
            C = radial_invariant_values(state.q, state.qdot, kind)
            t0 = state.t - radius(state.q, state.qdot, kind)[1] / (2.0 * H)
        return cls(energy=float(H), invariant=float(C), t0=float(t0))


def radial(sol: RadialSolution, t):
    """(r, rdot) of the radial law at time(s) t."""
    t = np.asarray(t, dtype=float)
    dt = t - sol.t0
    r = np.sqrt(2.0 * sol.energy * dt ** 2 + sol.invariant / sol.energy)
    rdot = 2.0 * sol.energy * dt / r
    return r, rdot


def radial_3d(H: float, J: float, r0: float, t):
    """(r, rdot) of the 3-d law r^2 = 2 H t^2 - 2 J t + r0^2: the radial law
    with C = H r0^2 - J^2/2 and t0 = J / (2 H)."""
    if H <= 0.0 or r0 <= 0.0:
        raise DomainError("3d radial law needs H > 0 and r0 > 0")
    return radial(RadialSolution(H, H * r0 * r0 - 0.5 * J * J, J / (2.0 * H)), t)


def time_reparam(sol: RadialSolution, t):
    """Reparametrized time ttilde(t) = int_{t0}^{t} dt'/r^2, in closed form."""
    t = np.asarray(t, dtype=float)
    H, inv = sol.energy, sol.invariant
    return np.arctan(math.sqrt(2.0 / inv) * H * (t - sol.t0)) / math.sqrt(2.0 * inv)


def _angular_law(kind: ModelKind) -> tuple[float, float, float, float]:
    """(M_X, M_Y, K, p) with U(phi) = K (cos^M_X(phi) sin^M_Y(phi))^p:
    p = -2/D and K = (D/2) (M_X^(M_X/2) M_Y^(M_Y/2))^(2/D)."""
    _require_planar(kind)
    Mx, My = kind.weights.tolist()
    D = kind.spatial_dim
    return Mx, My, D / 2 * (Mx ** (Mx / 2) * My ** (My / 2)) ** (2.0 / D), -2.0 / D


def angular_potential(phi, kind: ModelKind):
    """Angular potential U(phi) on (0, pi/2): the potential V at
    q = (cos(phi)/sqrt(M_X), sin(phi)/sqrt(M_Y)), the point of angle phi on
    the unit circle r = 1.  It is 1/(sin(phi) cos(phi)) for 2d and
    3 2^(-1/3) (cos^2(phi) sin(phi))^(-2/3) for elliptic."""
    Mx, My, K, p = _angular_law(kind)
    phi = np.asarray(phi, dtype=float)
    if np.any((phi <= 0.0) | (phi >= math.pi / 2.0)):
        raise DomainError("phi must lie strictly inside (0, pi/2)")
    with np.errstate(over="ignore"):  # U -> inf at the ends, as the overflow gives
        return K * (np.cos(phi) ** Mx * np.sin(phi) ** My) ** p


@functools.cache
def _angular_field(kind: ModelKind):
    """Scalar field of (phi, dphi/dttilde) for :func:`solve_ode`, with
    -U'(phi) = (2 U / D) (M_Y cot(phi) - M_X tan(phi)).  It raises
    DomainError for a stage outside (0, pi/2), so the solver rejects that
    step, as it does at a variance floor.  It is a :class:`FieldSource`,
    which the solver's native loop inlines into its step; built once per
    kind, so that every quadrature reuses its compiled step."""
    Mx, My, K, p = _angular_law(kind)
    return FieldSource(
        args=("phi", "w"),
        positive=f"0.0 < phi < {math.pi / 2.0!r}",
        refusal='f"phi={phi!r} left (0, pi/2)"',
        prelude=("c, s = cos(phi), sin(phi)",),
        outputs=("w", "g * (c ** Mx * s ** My) ** p * (My * c / s - Mx * s / c)"),
        constants=(("Mx", Mx), ("My", My), ("g", -p * K), ("p", p),
                   ("cos", math.cos), ("sin", math.sin))).function


def angular_minimum(kind: ModelKind) -> tuple[float, float]:
    """(phi*, U(phi*)) = (atan(sqrt(M_Y/M_X)), D^2/2): location and value of
    the potential minimum."""
    Mx, My, _, _ = _angular_law(kind)
    return math.atan(math.sqrt(My / Mx)), kind.spatial_dim ** 2 / 2


def polar_invariants(polar: PolarState, kind: ModelKind) -> tuple[float, float]:
    """(H, C) in polar variables: C = (r^2 phidot)^2 / 2 + U(phi) (I for
    2d, Itilde for elliptic) and H = rdot^2 / 2 + C / r^2."""
    # the batch form on a row of one, so that it rounds as the batch does
    rows = (np.array([x]) for x in astuple(polar))
    return tuple(float(v[0]) for v in polar_invariant_values(*rows, kind))


def polar_invariant_values(r, phi, rdot, phidot, kind: ModelKind):
    """:func:`polar_invariants` on the arrays :func:`fireball.models.polar_values` gives."""
    inv = 0.5 * (r * r * phidot) ** 2 + angular_potential(phi, kind)
    return 0.5 * rdot ** 2 + inv / r ** 2, inv


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
        inv = RadialSolution.from_state(state, kind).invariant
        speed = polar.r ** 2 * polar.phidot
        return cls(invariant=inv, phi0=polar.phi, sign0=-1 if speed < 0.0 else 1)


def angular_quadrature(sol: AngularSolution, kind: ModelKind, ttilde_grid,
                       *, rel_tol: float = 1e-14, abs_tol: float = 1e-14):
    """Integrate the angular motion over a ttilde grid.

    Returns (phi, dphi/dttilde) arrays on the grid.  The pair conserves the
    invariant, and the branch sign reverses at each turning point
    U(phi) = invariant without leaving (0, pi/2).  Steps land on every
    sample, as in any :func:`solve_ode` run, and a repeated time is the
    same sample.  Raises NoMotionError when the invariant lies below the
    potential minimum or phi0 is classically forbidden, and DomainError for
    a grid that is empty, decreasing somewhere, or starts before 0.
    """
    grid = np.asarray(ttilde_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("ttilde grid must be a nonempty 1-d array")
    # At large H t successive ttilde round to the same double: a repeated
    # time is the same sample.  NaN fails the comparison.
    if not (np.diff(grid) >= 0.0).all():
        raise DomainError("ttilde grid must be non-decreasing")
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

    ys = solve_ode(_angular_field(kind), 0.0, [sol.phi0, v0], grid,
                   rel_tol=rel_tol, abs_tol=abs_tol)
    return ys[:, 0], ys[:, 1]


def one_d_solution(H: float, t0: float, t):
    """Exact solution (X, Xdot) of Xdd = 1/X^3 at energy H > 0: the radial
    law with C = 1/2, since r = X."""
    return radial(RadialSolution(H, 0.5, t0), t)


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
