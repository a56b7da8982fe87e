"""Model kinds, state containers, physical reference values and rescalings.

The dynamical variables are the Gaussian variances of an expanding blob,
one per spatial direction.  Everything downstream works in dimensionless
variables; :func:`nondimensionalize` / :func:`dimensionalize` convert to and
from laboratory units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, UnsupportedModelError


class ModelKind(Enum):
    """The four reduced variance-dynamics systems.

    ``ELLIPTIC_3D`` is the three-dimensional system restricted to states whose
    two transverse variances coincide; only the two independent variances
    (X, Y) are stored, so the constraint holds by construction.
    """

    ONE_D = "1d"
    TWO_D = "2d"
    THREE_D = "3d"
    ELLIPTIC_3D = "elliptic"

    @property
    def axes(self) -> tuple[int, ...]:
        """Stored coordinate carried by each spatial axis of the Gaussian.

        Every other per-model fact derives from this map; the elliptic
        model's third axis (Z) carries X.
        """
        return {ModelKind.ONE_D: (0,), ModelKind.TWO_D: (0, 1),
                ModelKind.THREE_D: (0, 1, 2), ModelKind.ELLIPTIC_3D: (0, 1, 0)}[self]

    @property
    def dim(self) -> int:
        """Number of independent variance coordinates."""
        return max(self.axes) + 1

    @property
    def spatial_dim(self) -> int:
        """Number D of spatial axes of the Gaussian profile."""
        return len(self.axes)

    @property
    def labels(self) -> tuple[str, ...]:
        return ("X", "Y", "Z")[:self.dim]

    @property
    def weights(self) -> np.ndarray:
        """Kinetic weights M: the number of spatial axes each coordinate
        carries, so the kinetic energy is sum(M qdot^2) / 2."""
        return np.bincount(self.axes).astype(float)

    @property
    def has_ermakov_invariant(self) -> bool:
        """True for the planar models (2d, elliptic)."""
        return self.dim == 2

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise UnsupportedModelError(
                f"unknown model {name!r}; expected one of: {valid}") from None


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)  # copy: the state owns (and freezes) it
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-d sequence, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise DomainError(f"{name} contains non-finite entries: {arr}")
    return arr


@dataclass(frozen=True, eq=False)
class State:
    """Variances and their rates at a single time.

    ``q`` holds the variances (strictly positive), ``qdot`` their time
    derivatives.  Units are whatever the caller is working in; the ODE layer
    uses the dimensionless form throughout.
    """

    t: float
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        q = _as_vector(self.q, "q")
        qdot = _as_vector(self.qdot, "qdot")
        if q.shape != qdot.shape:
            raise DomainError(f"q and qdot lengths differ: {q.shape} vs {qdot.shape}")
        if min(q.tolist(), default=1.0) <= 0.0:
            raise DomainError(f"variances must be strictly positive, got {q}")
        q.setflags(write=False)
        qdot.setflags(write=False)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qdot)

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def check_state(state: State, kind: ModelKind) -> State:
    """Validate that ``state`` has the coordinate count of ``kind``."""
    if state.dim != kind.dim:
        raise DomainError(
            f"state has {state.dim} coordinates but model {kind.value!r} "
            f"expects {kind.dim}")
    return state


def state_from_components(kind: ModelKind, *, t=0.0, X=None, Y=None, Z=None,
                          Xdot=0.0, Ydot=0.0, Zdot=0.0) -> State:
    """Build a State from named components, requiring exactly those of ``kind``."""
    given = {"X": X, "Y": Y, "Z": Z}
    rates = {"X": Xdot, "Y": Ydot, "Z": Zdot}
    q, qdot = [], []
    for label in kind.labels:
        if given[label] is None:
            raise DomainError(f"model {kind.value!r} requires component {label}")
        q.append(float(given[label]))
        qdot.append(float(rates[label]))
    extra = [lbl for lbl, v in given.items() if v is not None and lbl not in kind.labels]
    if extra:
        raise DomainError(f"model {kind.value!r} does not take components {extra}")
    return State(t=t, q=np.array(q), qdot=np.array(qdot))


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional reference values: density, temperature (energy units),
    variances and particle mass.  ``Y0``/``Z0`` are required only when the
    model has the corresponding coordinate."""

    n0: float = 1.0
    T0: float = 1.0
    X0: float = 1.0
    Y0: float | None = None
    Z0: float | None = None
    m: float = 1.0

    def __post_init__(self):
        for name in ("n0", "T0", "X0", "m"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be strictly positive")
        for name in ("Y0", "Z0"):
            val = getattr(self, name)
            if val is not None and val <= 0.0:
                raise DomainError(f"{name} must be strictly positive when given")

    def variances(self, kind: ModelKind) -> np.ndarray:
        """Reference variances of the coordinates of ``kind`` (X0, Y0, Z0 in turn)."""
        names = ("X0", "Y0", "Z0")[:kind.dim]
        for name in names:
            if getattr(self, name) is None:
                raise DomainError(f"model {kind.value!r} requires reference value {name}")
        return np.array([getattr(self, name) for name in names])


def axis_product(values, kind: ModelKind):
    """Product of per-coordinate ``values`` (..., dim) over the spatial axes
    of ``kind``: X Y Z for 3d, X^2 Y for elliptic."""
    # Repeated axes are multiplied first (X X Y), the rounding of X**2 * Y.
    return np.prod(np.asarray(values, dtype=float)[..., sorted(kind.axes)], axis=-1)


def reference_scales(params: PhysicalParams, kind: ModelKind) -> tuple[float, float]:
    """Return ``(length_scale, time_scale)`` of the rescaling for ``kind``.

    The length scale is the geometric mean of the reference variances over
    the spatial axes.  Dimensionless variables are ``q/length_scale`` and
    ``t/time_scale``; the velocity scale is ``sqrt(T0/m)`` for every model.
    """
    length = float(axis_product(params.variances(kind), kind)) ** (1.0 / kind.spatial_dim)
    time = length * math.sqrt(params.m / params.T0)
    return length, time


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


@dataclass(frozen=True)
class PolarState:
    """Polar view of a planar state: ``r`` radial, ``phi`` in (0, pi/2)."""

    r: float
    phi: float
    rdot: float = 0.0
    phidot: float = 0.0

    def __post_init__(self):
        if self.r <= 0.0:
            raise DomainError(f"r must be strictly positive, got {self.r}")
        if not 0.0 < self.phi < math.pi / 2.0:
            raise DomainError(f"phi must lie strictly inside (0, pi/2), got {self.phi}")


def radius(qs, qdots, kind: ModelKind):
    """``(r, r rdot)`` with r^2 = sum(M q^2), M the kinetic weights.

    Accepts a (d,) state or (n, d) batches.  For the planar models r is the
    polar radius; for 3d it is the radius of the law r^2 = 2 H t^2 - 2 J t + r0^2.
    """
    qs = np.asarray(qs, dtype=float)
    weighted = kind.weights * qs
    return (np.sqrt(np.sum(weighted * qs, axis=-1)),
            np.sum(weighted * qdots, axis=-1))


def _require_planar(kind: ModelKind) -> None:
    if kind.dim != 2:
        raise UnsupportedModelError(
            f"polar coordinates are defined for 2d/elliptic models, not {kind.value!r}")


def to_polar(state: State, kind: ModelKind) -> PolarState:
    """Convert a planar state to polar coordinates of the stretched variables
    sqrt(M) q: X = r cos(phi) / sqrt(M_X), Y = r sin(phi) / sqrt(M_Y).

    For the true 2-d model this is X = r cos(phi), Y = r sin(phi); for the
    elliptic model X = r cos(phi)/sqrt(2), Y = r sin(phi), so
    r**2 = 2 X**2 + Y**2.
    """
    _require_planar(kind)
    check_state(state, kind)
    stretch = np.sqrt(kind.weights)
    (u, v), (ud, vd) = stretch * state.q, stretch * state.qdot
    r, r_rdot = radius(state.q, state.qdot, kind)
    return PolarState(r=float(r), phi=math.atan2(v, u), rdot=float(r_rdot / r),
                      phidot=float((u * vd - v * ud) / r ** 2))


def to_cartesian(polar: PolarState, kind: ModelKind, t: float = 0.0) -> State:
    """Inverse of :func:`to_polar`; ``t`` restores the time stamp."""
    _require_planar(kind)
    r, phi, rdot, phidot = polar.r, polar.phi, polar.rdot, polar.phidot
    c, s = math.cos(phi), math.sin(phi)
    stretch = np.sqrt(kind.weights)
    q = np.array([r * c, r * s]) / stretch
    qdot = np.array([rdot * c - r * phidot * s, rdot * s + r * phidot * c]) / stretch
    return State(t=t, q=q, qdot=qdot)
