"""Adaptive Dormand-Prince 5(4) integration with positivity guarding.

The embedded pair gives a 5th-order propagated solution with a 4th-order
error estimate.  Steps land exactly on the sampling grid, so sampled values
carry no interpolation error (once steps outgrow the grid spacing, cubic
Hermite interpolation would dominate the drift of the conserved quantities);
a two-point Hermite interpolant remains as the fallback for samples that end
up strictly inside a step.

The stepper works on Python floats: the state is a list, the right-hand side
``f(t, y)`` receives a list of floats and returns a sequence of floats, and
the stages are plain sums over the components, which for the 2-6 component
systems here is far cheaper than numpy calls on tiny arrays.

Positivity is checked once per stage, inside the model's vector field
(:func:`fireball.dynamics.vector_field`): it raises :class:`DomainError` when
any variance is <= POSITIVITY_FLOOR (1e-12).  The last stage evaluates f at
the step's end point, so that check also covers every accepted state.  A
step whose stage raises (or whose end state fails an optional ``guard``) is
rejected and halved; 50 consecutive such rejections raise
:class:`SingularityError`.  Trajectories started from valid states never
reach the axes (the Ermakov bound keeps X Y >= 1/H), so a singularity abort
signals a bug or invalid input rather than physics.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationError, SingularityError
from .models import ModelKind, State, check_state
from .dynamics import vector_field

log = logging.getLogger("fireball.integrate")

# Dormand & Prince (1980) coefficients.  Stage 7 evaluates f at the step's
# end point (FSAL: the last row of _A is the 5th-order weights), so it doubles
# as stage 1 of the next step.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b5 - b4: weights of the local error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_MAX_GUARD_REJECTS = 50


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control and sampling settings for one integration run."""

    t_end: float
    sample_interval: float = 0.01
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    initial_step: float | None = None

    def __post_init__(self):
        for name in _CONFIG_FIELDS:
            v = getattr(self, name)
            if v is not None and math.isnan(v):
                raise DomainError(f"{name} must not be NaN")
        for name in ("t_end", "sample_interval"):
            if math.isinf(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {v}")
        if self.sample_interval <= 0.0:
            raise DomainError("sample_interval must be positive")
        if self.max_step <= 0.0:
            raise DomainError("max_step must be positive")
        if self.initial_step is not None and self.initial_step <= 0.0:
            raise DomainError("initial_step must be positive when given")


_CONFIG_FIELDS = tuple(f.name for f in fields(IntegratorConfig))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of one model run.

    ``times`` is strictly increasing; ``qs``/``qdots`` are (n, d) arrays.
    ``config`` echoes the integrator settings (None for hand-built data).
    """

    kind: ModelKind
    times: np.ndarray
    qs: np.ndarray
    qdots: np.ndarray
    config: IntegratorConfig | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        qs = np.atleast_2d(np.asarray(self.qs, dtype=float))
        qdots = np.atleast_2d(np.asarray(self.qdots, dtype=float))
        if qs.shape != (times.size, self.kind.dim) or qdots.shape != qs.shape:
            raise DomainError(
                f"trajectory arrays inconsistent: times {times.shape}, "
                f"qs {qs.shape}, qdots {qdots.shape}, model dim {self.kind.dim}")
        if times.size and np.any(np.diff(times) <= 0.0):
            raise DomainError("sample times must be strictly increasing")
        if np.any(qs <= 0.0):
            raise DomainError("trajectory contains non-positive variances")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "qdots", qdots)

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> State:
        return State(t=float(self.times[i]), q=self.qs[i], qdot=self.qdots[i])


def sample_grid(t0: float, t_end: float, interval: float) -> np.ndarray:
    """Uniform grid from t0 at the given spacing, always ending at t_end."""
    n = int(math.floor((t_end - t0) / interval + 1e-9))
    grid = t0 + interval * np.arange(n + 1)
    if grid[-1] < t_end - 1e-9 * max(1.0, abs(t_end)):
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    return grid


def _hermite(t, t0, y0, f0, t1, y1, f1):
    """Cubic Hermite value at t inside the accepted step [t0, t1]."""
    h = t1 - t0
    s = (t - t0) / h
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


def _singular(t, y) -> SingularityError:
    return SingularityError(
        f"positivity guard rejected {_MAX_GUARD_REJECTS} consecutive "
        f"steps near t={t!r}", last_t=t, last_y=np.array(y))


def solve_ode(f: Callable[[float, list], Sequence[float]],
              t0: float,
              y0: Sequence[float],
              sample_times: np.ndarray,
              *,
              rel_tol: float = 1e-10,
              abs_tol: float = 1e-12,
              max_step: float = math.inf,
              initial_step: float | None = None,
              guard: Callable[[list], bool] | None = None) -> np.ndarray:
    """Integrate y' = f(t, y) and return y at the requested sample times.

    ``f`` receives the state as a list of floats and returns a sequence of
    floats (a tuple, list or 1-d array) of the same length; it may raise
    :class:`DomainError` to reject a stage, e.g. at a variance floor.
    ``sample_times`` must be increasing and start at >= t0; integration runs
    to its last entry.  ``guard`` (if given) receives each step's end state
    as a list and must hold there; a DomainError from ``f`` and a failed
    guard both reject the step.  Returns a (len(sample_times), len(y0)) array.
    """
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A
    _, c2, c3, c4, c5, _, _ = _C
    e1, _, e3, e4, e5, e6, e7 = _E

    y = [float(v) for v in y0]
    n = len(y)
    t = float(t0)
    times = np.asarray(sample_times, dtype=float).tolist()
    t_end = times[-1]
    if t_end < t:
        raise DomainError(f"sample times end at {t_end} before start {t}")
    span = t_end - t

    out = array("d")  # samples, row after row
    n_samples = len(times)
    next_idx = 0
    # Emit any samples at (or numerically before) the start.
    while next_idx < n_samples and times[next_idx] <= t + 1e-14 * max(1.0, abs(t)):
        out.extend(y)
        next_idx += 1

    if span == 0.0:
        return np.frombuffer(out).reshape(-1, n)

    h = initial_step if initial_step is not None else min(max_step, span / 100.0, 0.1)
    h = min(h, span)
    k1 = f(t, y)
    guard_rejects = 0
    n_steps = n_rejects = 0

    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    while t < t_stop:
        h = min(h, max_step, t_end - t)
        if next_idx < n_samples:
            # Land exactly on the next sample: interpolation error would
            # otherwise dominate invariant drift once steps outgrow the grid.
            h = min(h, times[next_idx] - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if guard_rejects > 0:
                raise SingularityError(
                    f"positivity guard forced the step below the floor at t={t!r}",
                    last_t=t, last_y=np.array(y))
            raise IntegrationError(
                f"step size underflow at t={t!r} (h={h!r})", last_t=t, last_y=np.array(y))

        try:
            k2 = f(t + c2 * h, [u + h * (a21 * p1) for u, p1 in zip(y, k1)])
            k3 = f(t + c3 * h, [u + h * (a31 * p1 + a32 * p2)
                                for u, p1, p2 in zip(y, k1, k2)])
            k4 = f(t + c4 * h, [u + h * (a41 * p1 + a42 * p2 + a43 * p3)
                                for u, p1, p2, p3 in zip(y, k1, k2, k3)])
            k5 = f(t + c5 * h, [u + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                                for u, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [u + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
                           for u, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = [u + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
                     for u, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(t + h, y_new)
        except DomainError:
            guard_rejects += 1
            if guard_rejects > _MAX_GUARD_REJECTS:
                raise _singular(t, y) from None
            n_rejects += 1
            h *= 0.5
            continue

        if guard is not None and not guard(y_new):
            guard_rejects += 1
            if guard_rejects > _MAX_GUARD_REJECTS:
                raise _singular(t, y)
            n_rejects += 1
            h *= 0.5
            continue
        guard_rejects = 0

        sq = 0.0
        for u, v, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            u, v = abs(u), abs(v)
            e = h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7) \
                / (abs_tol + rel_tol * (u if u > v else v))
            sq += e * e
        err = math.sqrt(sq / n)

        if err <= 1.0:
            t_new = t + h
            tol = 1e-14 * max(1.0, abs(t_new))
            while next_idx < n_samples and times[next_idx] <= t_new + tol:
                ts = times[next_idx]
                if abs(ts - t_new) <= tol:
                    out.extend(y_new)
                else:
                    out.extend(_hermite(ts, t, np.array(y), np.array(k1),
                                        t_new, np.array(y_new), np.array(k7)))
                next_idx += 1
            t, y, k1 = t_new, y_new, k7  # FSAL: k7 = f(t_new, y_new)
            n_steps += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            n_rejects += 1
            factor = min(1.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor

    while next_idx < n_samples:  # trailing samples at t_end
        out.extend(y)
        next_idx += 1
    log.debug("solve_ode: %d accepted, %d rejected steps over [%g, %g]",
              n_steps, n_rejects, t0, t_end)
    return np.frombuffer(out).reshape(-1, n)


def integrate(initial: State, kind: ModelKind, config: IntegratorConfig) -> Trajectory:
    """Integrate the model from ``initial`` up to ``config.t_end``.

    Raises :class:`SingularityError` if the positivity floor keeps rejecting
    steps and :class:`IntegrationError` on step-size underflow; both carry the
    last good state.
    """
    check_state(initial, kind)
    if config.t_end <= initial.t:
        raise DomainError(
            f"t_end={config.t_end} must exceed the initial time {initial.t}")
    d = kind.dim
    grid = sample_grid(initial.t, config.t_end, config.sample_interval)
    y0 = initial.q.tolist() + initial.qdot.tolist()
    try:
        ys = solve_ode(vector_field(kind), initial.t, y0, grid,
                       rel_tol=config.rel_tol, abs_tol=config.abs_tol,
                       max_step=config.max_step, initial_step=config.initial_step)
    except IntegrationError as exc:
        if exc.last_y is not None:
            exc.last_state = State(t=exc.last_t, q=exc.last_y[:d], qdot=exc.last_y[d:])
        raise
    return Trajectory(kind=kind, times=grid, qs=ys[:, :d], qdots=ys[:, d:],
                      config=config)
