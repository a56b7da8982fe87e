"""Adaptive Dormand-Prince 5(4) integration with positivity guarding.

The embedded pair gives a 5th-order propagated solution with a 4th-order
error estimate.  Steps land exactly on the sampling grid, so sampled values
carry no interpolation error (once steps outgrow the grid spacing, cubic
Hermite interpolation would dominate the drift of the conserved quantities);
a two-point Hermite interpolant remains as the fallback for samples that end
up strictly inside a step.

Steps whose end state violates the supplied guard (for the fireball models:
any variance <= 1e-12) are rejected and the step is halved; 50 consecutive
guard rejections raise :class:`SingularityError`.  Trajectories started from
valid states never reach the axes (the Ermakov bound keeps X Y >= 1/H), so a
singularity abort signals a bug or invalid input rather than physics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError, SingularityError
from .models import ModelKind, State, check_state
from . import dynamics

log = logging.getLogger("fireball.integrate")

# Dormand & Prince (1980) coefficients.  Stage 7 evaluates f at the accepted
# end point (FSAL), so it doubles as stage 1 of the next step.
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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the local error estimate.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])

_A_ARRAYS = tuple(np.array(row) for row in _A)

POSITIVITY_FLOOR = 1e-12
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
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and math.isnan(v):
                raise DomainError(f"{f.name} must not be NaN")
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


def solve_ode(f: Callable[[float, np.ndarray], np.ndarray],
              t0: float,
              y0: np.ndarray,
              sample_times: np.ndarray,
              *,
              rel_tol: float = 1e-10,
              abs_tol: float = 1e-12,
              max_step: float = math.inf,
              initial_step: float | None = None,
              guard: Callable[[np.ndarray], bool] | None = None) -> np.ndarray:
    """Integrate y' = f(t, y) and return y at the requested sample times.

    ``sample_times`` must be increasing and start at >= t0; integration runs
    to its last entry.  ``guard`` (if given) must hold at every accepted step
    end; DomainError raised inside ``f`` is treated as a guard violation.
    """
    y = np.array(y0, dtype=float)
    n = y.size
    t = float(t0)
    t_end = float(sample_times[-1])
    if t_end < t:
        raise DomainError(f"sample times end at {t_end} before start {t}")
    span = t_end - t

    out = np.empty((len(sample_times), n))
    next_idx = 0
    # Emit any samples at (or numerically before) the start.
    while next_idx < len(sample_times) and sample_times[next_idx] <= t + 1e-14 * max(1.0, abs(t)):
        out[next_idx] = y
        next_idx += 1

    if span == 0.0:
        return out

    h = initial_step if initial_step is not None else min(max_step, span / 100.0, 0.1)
    h = min(h, span)
    k1 = f(t, y)
    kmat = np.empty((7, n))
    guard_rejects = 0
    n_steps = n_rejects = 0

    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(h, max_step, t_end - t)
        if next_idx < len(sample_times):
            # Land exactly on the next sample: interpolation error would
            # otherwise dominate invariant drift once steps outgrow the grid.
            h = min(h, sample_times[next_idx] - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if guard_rejects > 0:
                raise SingularityError(
                    f"positivity guard forced the step below the floor at t={t!r}",
                    last_t=t, last_y=y.copy())
            raise IntegrationError(
                f"step size underflow at t={t!r} (h={h!r})", last_t=t, last_y=y.copy())

        kmat[0] = k1
        try:
            for i in range(1, 7):
                yi = y + h * (_A_ARRAYS[i] @ kmat[:i])
                kmat[i] = f(t + _C[i] * h, yi)
        except DomainError:
            guard_rejects += 1
            if guard_rejects > _MAX_GUARD_REJECTS:
                raise SingularityError(
                    f"positivity guard rejected {_MAX_GUARD_REJECTS} consecutive "
                    f"steps near t={t!r}", last_t=t, last_y=y.copy()) from None
            n_rejects += 1
            h *= 0.5
            continue

        y_new = y + h * (_B5 @ kmat)

        if guard is not None and not guard(y_new):
            guard_rejects += 1
            if guard_rejects > _MAX_GUARD_REJECTS:
                raise SingularityError(
                    f"positivity guard rejected {_MAX_GUARD_REJECTS} consecutive "
                    f"steps near t={t!r}", last_t=t, last_y=y.copy())
            n_rejects += 1
            h *= 0.5
            continue
        guard_rejects = 0

        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(float(np.mean((h * (_E @ kmat) / scale) ** 2)))

        if err <= 1.0:
            t_new = t + h
            f_new = kmat[6].copy()  # FSAL: f(t_new, y_new)
            while next_idx < len(sample_times) and \
                    sample_times[next_idx] <= t_new + 1e-14 * max(1.0, abs(t_new)):
                ts = sample_times[next_idx]
                if abs(ts - t_new) <= 1e-14 * max(1.0, abs(t_new)):
                    out[next_idx] = y_new
                else:
                    out[next_idx] = _hermite(ts, t, y, k1, t_new, y_new, f_new)
                next_idx += 1
            t, y, k1 = t_new, y_new, f_new
            n_steps += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            n_rejects += 1
            factor = min(1.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor

    while next_idx < len(sample_times):  # trailing samples at t_end
        out[next_idx] = y
        next_idx += 1
    log.debug("solve_ode: %d accepted, %d rejected steps over [%g, %g]",
              n_steps, n_rejects, t0, t_end)
    return out


def integrate(initial: State, kind: ModelKind, config: IntegratorConfig) -> Trajectory:
    """Integrate the model from ``initial`` up to ``config.t_end``.

    Raises :class:`SingularityError` if the positivity guard keeps rejecting
    steps and :class:`IntegrationError` on step-size underflow; both carry the
    last good state.
    """
    check_state(initial, kind)
    if config.t_end <= initial.t:
        raise DomainError(
            f"t_end={config.t_end} must exceed the initial time {initial.t}")
    d = kind.dim

    def f(t, y):
        q = y[:d]
        if np.any(q <= 0.0):
            raise DomainError("variance crossed zero during a stage evaluation")
        out = np.empty(2 * d)
        out[:d] = y[d:]
        out[d:] = dynamics.accel(q, kind)
        return out

    def guard(y):
        return bool(np.all(y[:d] > POSITIVITY_FLOOR))

    grid = sample_grid(initial.t, config.t_end, config.sample_interval)
    y0 = np.concatenate([initial.q, initial.qdot])
    try:
        ys = solve_ode(f, initial.t, y0, grid,
                       rel_tol=config.rel_tol, abs_tol=config.abs_tol,
                       max_step=config.max_step, initial_step=config.initial_step,
                       guard=guard)
    except IntegrationError as exc:
        if exc.last_y is not None:
            exc.last_state = State(t=exc.last_t, q=exc.last_y[:d], qdot=exc.last_y[d:])
        raise
    return Trajectory(kind=kind, times=grid, qs=ys[:, :d], qdots=ys[:, d:],
                      config=config)
