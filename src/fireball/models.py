"""Model kinds, state containers, physical reference values and rescalings.

The dynamical variables are the Gaussian variances of an expanding blob,
one per spatial direction.  Everything downstream works in dimensionless
variables; :func:`reference_scales` gives the length and time scales that
convert them to and from laboratory units.
"""

from __future__ import annotations

import itertools
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

    Each member's facts derive from ``axes``, the stored coordinate carried
    by each spatial axis of the Gaussian (the elliptic model's third axis, Z,
    carries X), and are set once, when the member is made:

    - ``dim``: the number of independent variance coordinates;
    - ``spatial_dim``: the number D of spatial axes of the Gaussian profile;
    - ``labels``: the coordinate names, X, Y, Z in turn;
    - ``weights``: the kinetic weights M, the number of spatial axes each
      coordinate carries, so the kinetic energy is sum(M qdot^2) / 2
      (a read-only array);
    - ``has_ermakov_invariant``: True for the planar models (2d, elliptic);
    - ``sorted_axes``: ``axes`` with repeated axes together (X X Y), so a
      product over them rounds as X**2 * Y does.
    """

    ONE_D = "1d", (0,)
    TWO_D = "2d", (0, 1)
    THREE_D = "3d", (0, 1, 2)
    ELLIPTIC_3D = "elliptic", (0, 1, 0)

    def __new__(cls, value: str, axes: tuple[int, ...]):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.axes = axes
        kind.dim = max(axes) + 1
        kind.spatial_dim = len(axes)
        kind.labels = ("X", "Y", "Z")[:kind.dim]
        kind.weights = np.bincount(axes).astype(float)
        kind.weights.setflags(write=False)
        kind.has_ermakov_invariant = kind.dim == 2
        kind.sorted_axes = tuple(sorted(axes))
        return kind

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise UnsupportedModelError(
                f"unknown model {name!r}; expected one of: {valid}") from None


def _as_vector(values, name: str) -> tuple[np.ndarray, list[float]]:
    """A finite 1-d float copy of ``values`` and its entries as a list."""
    arr = np.array(values, dtype=float)  # copy: the state owns (and freezes) it
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-d sequence, got shape {arr.shape}")
    entries = arr.tolist()
    if not all(map(math.isfinite, entries)):
        raise DomainError(f"{name} contains non-finite entries: {arr}")
    return arr, entries


@dataclass(frozen=True, eq=False)
class State:
    """Variances and their rates at a single time.

    ``t`` is finite, ``q`` holds the variances (strictly positive), ``qdot``
    their time derivatives.  Units are whatever the caller is working in; the
    ODE layer uses the dimensionless form throughout.
    """

    t: float
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        q, entries = _as_vector(self.q, "q")
        qdot, _ = _as_vector(self.qdot, "qdot")
        if q.shape != qdot.shape:
            raise DomainError(f"q and qdot lengths differ: {q.shape} vs {qdot.shape}")
        if min(entries, default=1.0) <= 0.0:
            raise DomainError(f"variances must be strictly positive, got {q}")
        t = float(self.t)
        if not math.isfinite(t):
            raise DomainError(f"t must be finite, got {t}")
        q.setflags(write=False)
        qdot.setflags(write=False)
        object.__setattr__(self, "t", t)
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
        for name in ("n0", "T0", "X0", "Y0", "Z0", "m"):
            val = getattr(self, name)
            if not (val is None and name in ("Y0", "Z0") or 0.0 < val < math.inf):
                raise DomainError(f"{name} must be finite and strictly positive, got {val!r}")

    def variances(self, kind: ModelKind) -> np.ndarray:
        """Reference variances of the coordinates of ``kind`` (X0, Y0, Z0 in turn)."""
        names = ("X0", "Y0", "Z0")[:kind.dim]
        for name in names:
            if getattr(self, name) is None:
                raise DomainError(f"model {kind.value!r} requires reference value {name}")
        return np.array([getattr(self, name) for name in names])


def axis_product(values, kind: ModelKind):
    """Product of per-coordinate ``values`` (..., dim) over the spatial axes
    of ``kind``, left to right: (X Y) Z for 3d, (X X) Y for elliptic, and
    for 1d the X column itself (a view of ``values``)."""
    values = np.asarray(values, dtype=float)
    first, *rest = kind.sorted_axes
    product = values[..., first]
    for axis in rest:
        product = product * values[..., axis]
    return product


def row_sum(values):
    """The sum over the last axis of ``values``, as column adds left to
    right, in a new array: about a tenth of ``np.add.reduce``'s cost on
    (n, 2) and (n, 3) arrays."""
    total = +values[..., 0]  # a copy, which the adds below may overwrite
    for i in range(1, values.shape[-1]):
        total += values[..., i]
    return total


def power(base, exponent: float) -> np.ndarray:
    """``base ** exponent`` for bases >= 0 by the C library's ``pow`` per element,
    as in Python and C; numpy's own power differs in the last bit on AVX-512."""
    base = np.asarray(base, dtype=float)
    values = map(math.pow, base.ravel().tolist(), itertools.repeat(float(exponent)))
    return np.fromiter(values, float, base.size).reshape(base.shape)


def reference_scales(params: PhysicalParams, kind: ModelKind) -> tuple[float, float]:
    """Return ``(length_scale, time_scale)`` of the rescaling for ``kind``.

    The length scale is the geometric mean of the reference variances over
    the spatial axes.  Dimensionless variables are ``q/length_scale`` and
    ``t/time_scale``; the velocity scale is ``sqrt(T0/m)`` for every model.
    """
    length = float(axis_product(params.variances(kind), kind)) ** (1.0 / kind.spatial_dim)
    time = length * math.sqrt(params.m / params.T0)
    return length, time


def radius(qs, qdots, kind: ModelKind):
    """``(r, r rdot)`` with r^2 = sum(M q^2), M the kinetic weights.

    Accepts a (d,) state or (n, d) batches.  For the planar models r is the
    polar radius; for 3d it is the radius of the law r^2 = 2 H t^2 - 2 J t + r0^2.
    """
    qs = np.asarray(qs, dtype=float)
    weighted = kind.weights * qs
    return np.sqrt(row_sum(weighted * qs)), row_sum(weighted * qdots)


def _require_planar(kind: ModelKind) -> None:
    if kind.dim != 2:
        raise UnsupportedModelError(
            f"polar coordinates are defined for 2d/elliptic models, not {kind.value!r}")


def polar_values(qs, qdots, kind: ModelKind):
    """``(r, phi, rdot, phidot)`` of the stretched variables sqrt(M) q, with
    X = r cos(phi) / sqrt(M_X) and Y = r sin(phi) / sqrt(M_Y), on (n, 2)
    batches of positive variances as (n,) arrays, or on a (2,) state."""
    _require_planar(kind)
    stretch = np.sqrt(kind.weights)
    (u, v), (ud, vd) = (stretch * qs).T, (stretch * qdots).T
    r, r_rdot = radius(qs, qdots, kind)
    return r, np.arctan2(v, u), r_rdot / r, (u * vd - v * ud) / r ** 2
