"""Closed-form solutions and quadrature procedures.

In every model V is homogeneous of degree -2 in q, so r^2 = sum(M q^2)
obeys the Lagrange-Jacobi identity d^2(r^2)/dt^2 = 4 H, and the radial law
of all four models is

    r(t)      = sqrt(2 H (t - t0)^2 + C / H),   C = r^2 H - (r rdot)^2 / 2,
    ttilde(t) = int dt'/r^2 = arctan(sqrt(2/C) H (t - t0)) / sqrt(2 C).

C is read from :mod:`fireball.invariants`, in Lagrange's-identity form
1/2 sum_{i<j} (s_i sdot_j - s_j sdot_i)^2 + r^2 V(q) on s = sqrt(M) q, whose
terms, unlike r^2 H and (r rdot)^2 / 2, do not grow and cancel as t grows.
C is I for 2d, Itilde for elliptic, 1/2 for 1d (where r = X) and
H r0^2 - J^2/2 for 3d.  For the planar models the angle of the stretched
polar coordinates obeys the 1-DOF energy law C = (dphi/dttilde)^2 / 2 + U(phi),
with U(phi) = V at the point of angle phi on the unit circle r = 1, and
minimum U = D^2/2 at tan(phi) = sqrt(M_Y/M_X).
The closed form of phi involves elliptic functions; here it is obtained by
adaptive integration of the same motion on the unit vector u = s / r of the
stretched coordinates s = sqrt(M) q, in ttilde:
u'' = a(u) - (|u'|^2 + 2 V(u)) u with a = -grad V at s = u, which is
phi'' = -U'(phi) written for u = (cos(phi), sin(phi)).  It conserves
C = |u'|^2 / 2 + V(u) and reverses branch automatically at the turning
points U(phi) = C.  On u the 2d field calls no math function and the
elliptic one a single power per stage, and an angle near an axis keeps its
digits, since the small component of u is stored rather than derived from
phi; phi = atan2(u_Y, u_X) is read off at the samples, whatever |u|.  The
field is declared as source, which the integrator's native loop inlines
into its step, as it does the models' fields, and its steps land on every
sample of the ttilde grid, at rel/abs tolerance 1e-14: on 200 random
states per model (q in [0.6, 1.8], qdot in [-0.8, 0.8], t to 25)
(dphi/dttilde)^2 / 2 + U(phi) then stays within 1.1e-14 relative of C,
and |u| within 6e-15 of 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoMotionError
from .models import ModelKind, State, _require_planar, check_state, radius
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
        if not (0.0 < H and 2.0 * H < math.inf and 0.0 < C < math.inf
                and 0.0 < C / H < math.inf and math.sqrt(2.0 / C) * H < math.inf):
            raise DomainError("the radial law needs finite positive H, 2H, C, C/H and "
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
    """(r, rdot) of the radial law at time(s) t.  Raises DomainError at the
    first time where r is not finite, as where 2 H (t - t0)^2 overflows."""
    t = np.asarray(t, dtype=float)
    dt = t - sol.t0
    with np.errstate(all="ignore"):  # a time where r is not finite is refused
        r = np.sqrt(2.0 * sol.energy * dt ** 2 + sol.invariant / sol.energy)
        rdot = 2.0 * sol.energy * dt / r
    if not np.isfinite(r).all():
        raise DomainError(f"the radial law overflows at t={float(t[~np.isfinite(r)][0])!r}")
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
    """Field of the angular motion on the unit vector u = s / r of the
    stretched coordinates s = sqrt(M) q, in the time ttilde: the state is
    (u, u'), u' = du/dttilde, and

        u'' = a(u) - (|u'|^2 + 2 V(u)) u,   a_i = (2 M_i / D) V(u) / u_i,

    where a = -grad V at s = u, and u . a = 2 V(u) since V is homogeneous of
    degree -2.  V(u) = (D/2) (k prod u_a)^(-2/D) over the D spatial axes a,
    with k = 1 / sqrt(prod M_a), is derived from the axes as
    :func:`fireball.dynamics.vector_field` derives its powers:
    ``1.0 / (uX * uY)`` for 2d, one ``**`` for elliptic.  It raises
    DomainError for a stage outside the open quadrant u > 0, so the solver
    rejects that step, as it does at a variance floor.  It is a
    :class:`FieldSource`, which the solver's native loop inlines into its
    step; built once per kind, so that every quadrature reuses its compiled
    step."""
    D = kind.spatial_dim
    u = tuple(f"u{x}" for x in kind.labels)
    w = tuple(f"w{x}" for x in kind.labels)
    product = " * ".join(u[a] for a in kind.sorted_axes)
    k = 1.0 / math.sqrt(math.prod(kind.weights[a] for a in kind.sorted_axes))
    if k != 1.0:
        product = f"{k!r} * ({product})"
    if 2 % D == 0:  # (k prod)^(-2/D) is 1 / (k prod) or its square
        potential = f"{D / 2!r} / ({' * '.join([product] * (2 // D))})"
    else:
        potential = f"{D / 2!r} * ({product}) ** {-2.0 / D!r}"
    pulls = tuple("V" if c == 1.0 else f"{c!r} * V"
                  for c in (2.0 * kind.weights / D).tolist())
    return FieldSource(
        args=u + w,
        positive=" and ".join(f"{x} > 0.0" for x in u),
        refusal=f'f"the unit vector ({", ".join(f"{{{x}!r}}" for x in u)}) left u > 0"',
        prelude=(f"V = {potential}",
                 f"g = {' + '.join(f'{x} * {x}' for x in w)} + 2.0 * V"),
        outputs=w + tuple(f"{pull} / {x} - g * {x}" for pull, x in zip(pulls, u))).function


def angular_minimum(kind: ModelKind) -> tuple[float, float]:
    """(phi*, U(phi*)) = (atan(sqrt(M_Y/M_X)), D^2/2): location and value of
    the potential minimum."""
    Mx, My, _, _ = _angular_law(kind)
    return math.atan(math.sqrt(My / Mx)), kind.spatial_dim ** 2 / 2


def polar_invariant_values(r, phi, rdot, phidot, kind: ModelKind):
    """(H, C) in polar variables, on the arrays :func:`fireball.models.polar_values`
    gives: C = (r^2 phidot)^2 / 2 + U(phi) (I for 2d, Itilde for elliptic)
    and H = rdot^2 / 2 + C / r^2."""
    inv = 0.5 * (r * r * phidot) ** 2 + angular_potential(phi, kind)
    return 0.5 * rdot ** 2 + inv / r ** 2, inv


@dataclass(frozen=True)
class AngularSolution:
    """Initial data of the angular quadrature: the invariant (I for 2d,
    Itilde for elliptic) and the starting state (u, u') of
    :func:`_angular_field`."""

    invariant: float
    start: tuple[float, ...]

    @classmethod
    def from_state(cls, state: State, kind: ModelKind) -> "AngularSolution":
        """The data of ``state``.  Its start is read off the state without
        passing through the angle: u = s / r and u' = r sdot - rdot s, so
        that a component near an axis keeps its digits."""
        inv = RadialSolution.from_state(state, kind).invariant
        stretch = np.sqrt(kind.weights)
        s, sdot = stretch * state.q, stretch * state.qdot
        r, r_rdot = radius(state.q, state.qdot, kind)
        start = np.concatenate([s / r, r * sdot - r_rdot / r * s])
        return cls(invariant=inv, start=tuple(start.tolist()))

    @classmethod
    def from_angle(cls, invariant: float, phi0: float, sign0: int,
                   kind: ModelKind) -> "AngularSolution":
        """The data at the angle phi0 with dphi/dttilde of sign sign0 (+1 or
        -1); NoMotionError for an invariant below the potential minimum or
        a phi0 it classically forbids."""
        if not 0.0 < phi0 < math.pi / 2.0:
            raise DomainError(f"phi0 must lie strictly inside (0, pi/2), got {phi0}")
        if sign0 not in (-1, 1):
            raise DomainError(f"sign0 must be +1 or -1, got {sign0}")
        _, u_min = angular_minimum(kind)
        if invariant < u_min - 1e-12:
            raise NoMotionError(
                f"invariant {invariant} lies below the potential minimum {u_min}")
        v_sq = 2.0 * (invariant - float(angular_potential(phi0, kind)))
        if v_sq < -1e-9 * max(1.0, invariant):
            raise NoMotionError(
                f"angle {phi0} is classically forbidden for invariant {invariant}")
        v0 = sign0 * math.sqrt(max(v_sq, 0.0))
        c, s = math.cos(phi0), math.sin(phi0)
        return cls(invariant=invariant, start=(c, s, -s * v0, c * v0))


def angular_quadrature(sol: AngularSolution, kind: ModelKind, ttilde_grid,
                       *, rel_tol: float = 1e-14, abs_tol: float = 1e-14):
    """Integrate the angular motion from ``sol.start`` over a ttilde grid.

    Returns (phi, dphi/dttilde) arrays on the grid, with phi = atan2(u_Y,
    u_X) of the unit vector u of :func:`_angular_field` and dphi/dttilde
    its rate, both free of the scale of u.  The pair conserves the
    invariant, and the branch sign reverses at each turning point
    U(phi) = invariant without leaving (0, pi/2).  Steps land on every
    sample, as in any :func:`solve_ode` run, and a repeated time is the
    same sample.  :func:`solve_ode` raises DomainError for a grid that is
    not a nonempty 1-d sequence, finite and non-decreasing from 0.
    """
    ux, uy, wx, wy = solve_ode(_angular_field(kind), 0.0, sol.start, ttilde_grid,
                               rel_tol=rel_tol, abs_tol=abs_tol).T
    return np.arctan2(uy, ux), (ux * wy - uy * wx) / (ux * ux + uy * uy)


def one_d_solution(H: float, t0: float, t):
    """Exact solution (X, Xdot) of Xdd = 1/X^3 at energy H > 0: the radial
    law with C = 1/2, since r = X."""
    return radial(RadialSolution(H, 0.5, t0), t)
