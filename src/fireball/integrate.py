"""Adaptive Dormand-Prince 5(4) integration.

The embedded pair gives a 5th-order propagated solution with a 4th-order
error estimate.  Steps land exactly on the sampling grid, so every sample
is a step's end state and carries no interpolation error: once steps
outgrow the grid spacing, as they do at long horizons, interpolation error
would dominate the drift of the conserved quantities.  A fine grid thus
costs a step per sample, which the native loop makes cheap.

The stepper works on Python floats: the right-hand side ``f(t, y)``
receives a list of floats and returns a sequence of floats of the same
length.  It exists in two forms, which agree bit for bit in every sample,
step decision, count and error: the Python stepper written out below
(:func:`_run_python`) and the C loop of :mod:`fireball.native`
(``native._LOOP``), one fixed source written line for line beside it,
which computes the same stage sums, error norm and step factor in the same
order.  A change to the stepper is made to both.  Which one serves a
field:

- A field declared as source (:class:`fireball.dynamics.FieldSource`: the
  models' fields and the angular quadrature's) runs as native code.
  :mod:`fireball.native` translates the field's check, prelude and outputs
  into a C function that the loop inlines, builds the two with the
  system's ``cc`` and loads them with :mod:`ctypes`; the flags keep every
  operation rounding as Python's does (that module says which and why).
  The shared object is cached in ``$XDG_CACHE_HOME/fireball``, else
  ``~/.cache/fireball``, so only the first solve of a kernel on a machine
  pays its build, 0.10-0.25 s (a per-process temporary directory serves
  when neither can be written).
- Any other field runs the Python stepper, which calls it once per stage:
  a declaration the translator cannot take, any declared field where no
  compiler works (its compiled ``f(t, y)`` runs the check, prelude and
  outputs that the C loop inlines, on the same floats), and any other
  callable, a wrapper of a declared field included.  This is the portable
  path, at CPython's floor of several microseconds per step.  A counting
  wrapper (as in the benchmark's traced run) sees every evaluation but
  times the Python stepper, not the native loop.

An info record of the ``fireball.integrate`` logger names the loop that
serves each kernel: native from the cache, native built in N s, or Python
and why.

The field checks the state: it raises :class:`DomainError` for a stage
outside its domain.  The models' fields
(:func:`fireball.dynamics.vector_field`) do so when any variance is
<= POSITIVITY_FLOOR (1e-12), the angular quadrature's field when the unit
vector leaves the open quadrant.  The last stage evaluates f at the step's
end point, so that check also covers every accepted state.  A step whose
stage raises is rejected and halved; 50 consecutive such rejections raise
:class:`SingularityError`.  The loop itself stops an overflow: an infinite
component divides its error to 0, so the norm accepts its step (a NaN one
rejects it), and the run ends in :class:`IntegrationError`.  Trajectories
started from valid states never reach the axes (the Ermakov bound keeps
X Y >= 1/H), so a singularity abort signals a bug or invalid input rather
than physics.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationError, SingularityError
from .models import ModelKind, State, check_state
from .dynamics import FieldSource, vector_field

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
# At an accepted step's error norm err <= 1.8e-4 the step factor
# 0.9 * err ** -0.2 is at least 5.04, so the cap at 5 binds and the power
# is skipped.
_CAPPED_ERR = 1.8e-4


def _failure(code: int, t: float, h: float, y: Sequence[float]) -> IntegrationError:
    """The error that ends a run: 1 for a step forced below the floor by
    domain refusals, 2 for step-size underflow, 3 for 50 consecutive
    refusals, 5 for an accepted step whose state overflowed.  The Python
    stepper and the C loop raise it from their last good state."""
    where = {"last_t": t, "last_y": np.array(y)}
    if code == 1:
        return SingularityError(f"domain refusals forced the step below the floor at t={t!r}",
                                **where)
    if code == 2:
        return IntegrationError(f"step size underflow at t={t!r} (h={h!r})", **where)
    if code == 5:
        return IntegrationError(f"the state overflowed in the step from t={t!r} (h={h!r})",
                                **where)
    return SingularityError(f"the field refused 50 consecutive steps near t={t!r}", **where)


def _rates(k, n: int):
    """The rates ``k`` that the field gave for an n-component state; ValueError
    unless there are n of them, since the stages read them by index."""
    if len(k) != n:
        raise ValueError(f"the field gave {len(k)} rates for a state of {n} components")
    return k


def _run_python(n, f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit):
    """solve_ode's Python stepper: the samples as an (len(times), n) array
    and the counts of accepted steps, rejected steps and refused stages.

    It steps from ``t`` and writes the samples from row ``next_idx`` on.
    Each stage calls ``f`` on the plain sums ``y_i + h * (a_s1 * k1_i +
    ...)`` over the nonzero tableau entries in tableau order; the error
    norm and the step control follow.  The C loop (``native._LOOP``, with
    the stage sums of ``native.c_source``) writes the same expressions in
    the same order, so the two agree bit for bit.  Comparisons stand in for abs(), min() and max(), as in the C
    loop, so that a rate that does not compare with a float (a complex
    number) raises TypeError rather than pass through abs().
    """
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A
    _, c2, c3, c4, c5, _, _ = _C
    e1, _, e3, e4, e5, e6, e7 = _E
    out = array("d", y * next_idx)  # samples, row after row
    n_samples, t_end = len(times), times[-1]
    t_stop = t_end - 1e-14 * max(unit, abs(t_end))
    # 1e-14 * max(unit, |t|): the step floor and the sample tolerance at t
    tol = 1e-14 * max(unit, abs(t))
    accepted = rejected = refused = refusals = 0
    comps = range(n)
    k1 = _rates(f(t, y), n)
    while t < t_stop:
        if max_step < h:
            h = max_step
        if t_end - t < h:
            h = t_end - t
        # Steps land on the samples: interpolation error would dominate the drift.
        if next_idx < n_samples and times[next_idx] - t < h:
            h = times[next_idx] - t
        if h < tol:
            raise _failure(1 if refusals > 0 else 2, t, h, y)
        try:
            k2 = _rates(f(t + c2 * h, [y[i] + h * (a21 * k1[i]) for i in comps]), n)
            k3 = _rates(f(t + c3 * h, [y[i] + h * (a31 * k1[i] + a32 * k2[i])
                                       for i in comps]), n)
            k4 = _rates(f(t + c4 * h, [y[i] + h * (a41 * k1[i] + a42 * k2[i] + a43 * k3[i])
                                       for i in comps]), n)
            k5 = _rates(f(t + c5 * h, [y[i] + h * (a51 * k1[i] + a52 * k2[i] + a53 * k3[i]
                                                   + a54 * k4[i]) for i in comps]), n)
            k6 = _rates(f(t + h, [y[i] + h * (a61 * k1[i] + a62 * k2[i] + a63 * k3[i]
                                              + a64 * k4[i] + a65 * k5[i]) for i in comps]), n)
            y_new = [y[i] + h * (b1 * k1[i] + b3 * k3[i] + b4 * k4[i] + b5 * k5[i]
                                 + b6 * k6[i]) for i in comps]
            k7 = _rates(f(t + h, y_new), n)
        except DomainError:
            refusals += 1
            if refusals > 50:
                raise _failure(3, t, h, y) from None
            rejected += 1
            refused += 1
            h *= 0.5
            continue
        refusals = 0
        sq = 0.0
        for i in comps:
            u, v = y[i], y_new[i]
            u = u if u >= 0.0 else -u
            v = v if v >= 0.0 else -v
            e = h * (e1 * k1[i] + e3 * k3[i] + e4 * k4[i] + e5 * k5[i] + e6 * k6[i]
                     + e7 * k7[i]) / (abs_tol + rel_tol * (u if u > v else v))
            sq += e * e
        err = math.sqrt(sq / n)
        if err <= 1.0:
            if not all(map(math.isfinite, y_new)):
                raise _failure(5, t, h, y)
            t_new = t + h
            at = t_new if t_new >= 0.0 else -t_new
            tol = 1e-14 * (at if at > unit else unit)
            # The step landed on (or stopped short of) the next sample, so
            # each sample emitted here lies within tol of t_new.
            t_hi = t_new + tol
            while next_idx < n_samples and times[next_idx] <= t_hi:
                out.extend(y_new)
                next_idx += 1
            t, y, k1 = t_new, y_new, k7
            accepted += 1
            # 0 <= err <= 1: the factor is at least 0.9, so only the cap at
            # 5 can bind, and it does wherever err <= _CAPPED_ERR.
            factor = 0.9 * err ** -0.2 if err > _CAPPED_ERR else 5.0
            if factor > 5.0:
                factor = 5.0
        else:
            # err > 1 or NaN: the factor is below 0.9 or NaN, so only the
            # floor at 0.2 can bind (NaN takes it, as in max(0.2, nan)).
            rejected += 1
            factor = 0.9 * err ** -0.2
            if not factor > 0.2:
                factor = 0.2
        h *= factor
    out.extend(y * (n_samples - next_idx))  # trailing samples at t_end
    return np.frombuffer(out).reshape(-1, n), accepted, rejected, refused


@functools.cache
def _loop_kernel(n: int, source: FieldSource | None = None):
    """The runner of :func:`solve_ode`'s loop for each n and field, chosen
    on first use: the native loop of :mod:`fireball.native` for a declared
    field it can translate and build, else the Python stepper.  One info
    record says which serves the kernel, and why."""
    label = (f"n={n} loop of "
             + (f"the declared field ({', '.join(source.args)})" if source else "a called field"))
    python = functools.partial(_run_python, n)
    if source is None:
        log.info("%s: Python, the field is called", label)
        return python
    from . import native
    try:
        run, how = native.kernel(n, source, python)
    except native.Unavailable as exc:
        log.info("%s: Python, %s", label, exc)
        return python
    log.info("%s: native, %s", label, how)
    return run


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control and sampling of one integration run, in CSV header order."""

    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    sample_interval: float = 0.01

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if math.isnan(getattr(self, name)):
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of one model run.

    ``times`` is finite and strictly increasing; ``qs``/``qdots`` are (n, d)
    arrays of positive finite variances and finite rates.  The constructor
    checks all of that.  :func:`integrate` builds its run without the
    checks, since its output holds these properties by construction: the
    shapes follow from the solve; the times are :func:`sample_grid`'s,
    finite and strictly increasing; and each sample is y0 or an accepted
    state.  Both loops evaluate the field at y0 before the first step and
    at each step's end state in its last stage, so a variance at or below
    the positivity floor (NaN included) raises :class:`DomainError` at y0
    and rejects a step that ends on it.  ``State`` made y0 finite; a NaN
    component makes the error norm NaN, which rejects the step, and an
    infinite one ends the run in :class:`IntegrationError`.
    """

    kind: ModelKind
    times: np.ndarray
    qs: np.ndarray
    qdots: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        qs = np.atleast_2d(np.asarray(self.qs, dtype=float))
        qdots = np.atleast_2d(np.asarray(self.qdots, dtype=float))
        if times.ndim != 1 or qs.shape != (times.size, self.kind.dim) or qdots.shape != qs.shape:
            raise DomainError(
                f"trajectory arrays inconsistent: times {times.shape}, "
                f"qs {qs.shape}, qdots {qdots.shape}, model dim {self.kind.dim}")
        # Written so that NaN fails each test.  Strictly increasing times
        # between finite ends are all finite; which fact fails is asked only
        # when one does.
        if not (times.size == 0 or ((times[1:] > times[:-1]).all()
                                    and -math.inf < times[0] and times[-1] < math.inf)):
            if not np.isfinite(times).all():
                raise DomainError("sample times must be finite")
            raise DomainError("sample times must be strictly increasing")
        if not (0.0 < np.minimum.reduce(qs, axis=None, initial=math.inf)
                and np.maximum.reduce(qs, axis=None, initial=0.0) < math.inf):
            raise DomainError("trajectory contains non-positive or infinite variances")
        if not np.isfinite(qdots).all():
            raise DomainError("trajectory contains non-finite rates")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "qdots", qdots)

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def _of_solve(cls, kind: ModelKind, times: np.ndarray, ys: np.ndarray) -> Trajectory:
        """:func:`integrate`'s run: the grid ``times`` and views of the
        solve's (n, 2d) block ``ys``, without the constructor's checks."""
        traj = object.__new__(cls)
        traj.__dict__.update(kind=kind, times=times, qs=ys[:, :kind.dim], qdots=ys[:, kind.dim:])
        return traj


def sample_grid(t0: float, t_end: float, interval: float) -> np.ndarray:
    """Uniform grid from t0 at the given spacing, always ending at t_end.

    Raises :class:`DomainError` for a t_end before t0 (t_end = t0 gives the
    single sample t0), naming the sample count for a grid too large to
    allocate, and for a spacing too fine for the floats near t0, whose times
    would repeat.
    """
    if not t_end >= t0:
        raise DomainError(f"t_end={t_end!r} lies before t0={t0!r}")
    count = (t_end - t0) / interval + 1e-9
    try:
        grid = t0 + interval * np.arange(math.floor(count) + 1)
    except (OverflowError, ValueError, MemoryError):
        raise DomainError(f"a grid of {count + 1.0:.6g} samples from {t0!r} to "
                          f"{t_end!r} cannot be allocated") from None
    if grid[-1] < t_end - 1e-9 * max(1.0, abs(t_end)) or (len(grid) == 1 and t_end > t0):
        grid = np.append(grid, t_end)
    else:  # snap a later point, never t0
        grid[-1] = t_end
    if not (grid[1:] > grid[:-1]).all():
        raise DomainError("sample times must be strictly increasing")
    return grid


def solve_ode(f: Callable[[float, list], Sequence[float]],
              t0: float,
              y0: Sequence[float],
              sample_times: np.ndarray,
              *,
              rel_tol: float = 1e-10,
              abs_tol: float = 1e-12,
              max_step: float = math.inf) -> np.ndarray:
    """Integrate y' = f(t, y) and return y at the requested sample times.

    ``f`` receives the state as a list of floats and returns a sequence of
    floats (a tuple, list or 1-d array) of the same length, else ValueError
    is raised; it raises :class:`DomainError` to reject a stage outside its
    domain, e.g. at a variance floor.  A field declared as source
    (:class:`fireball.dynamics.FieldSource`) is inlined into the native
    loop wherever that builds; otherwise, and for any other callable, the
    Python stepper calls f once per stage, with the same results.  A y0
    whose length is not the declaration's is refused with ValueError
    before anything is built.  Times are compared within 1e-14 relative to
    the larger of |t| and a unit, min(1, t_end - t0): a short span, such as
    an angular quadrature's ttilde grid, scales its own tolerances and step
    floor.
    DomainError is raised unless y0 and the samples are nonempty, the
    samples a 1-d sequence, finite and non-decreasing from a finite t0
    (within that tolerance), and ``max_step`` at least the step floor,
    1e-14 times the largest of the unit, |t0| and |t_end|.  Samples at t0
    get y0; the run ends at the last.  Every later sample is the end of a
    step, since steps land on them; a sample within that tolerance of a
    step's end is the end state, so a repeated time is the same sample.
    The ``solve_ode:`` debug record counts accepted steps, rejected steps
    and refused stages.  Returns a (len(sample_times), len(y0)) array.
    """
    y = [float(v) for v in y0]
    n = len(y)
    # A field declared as source may run in the native loop, unless f only
    # carries the declaration of another function (a wrapper that copied
    # its attributes), which must be called.
    source = getattr(f, "source", None)
    if source is not None and source.function is not f:
        source = None
    if source is not None and len(source.args) != n:
        raise ValueError(f"the field is declared over {len(source.args)} components, "
                         f"the state has {n}")
    t = float(t0)
    grid = np.asarray(sample_times, dtype=float)
    if grid.ndim != 1:
        raise DomainError(f"the sample times must be a 1-d sequence, got shape {grid.shape}")
    times = grid.tolist()
    # NaN fails every comparison, so a grid whose steps all pass holds none
    # and is finite if its ends are.
    if not (n and times and (grid[1:] >= grid[:-1]).all() and math.isfinite(t)
            and -math.inf < times[0] and times[-1] < math.inf):
        raise DomainError("the state and the sample times must be nonempty, t0 and the "
                          "sample times finite, and the sample times non-decreasing")
    t_end = times[-1]
    span = t_end - t
    # A span too short for a nonzero floor (or not positive) keeps unit 1.
    unit = min(1.0, span) if 1e-14 * span > 0.0 else 1.0
    t_tol = 1e-14 * max(unit, abs(t))
    if times[0] < t - t_tol:
        raise DomainError(f"sample times start at {times[0]} before t0={t}")
    if not max_step >= 1e-14 * max(unit, abs(t), abs(t_end)):
        raise DomainError(f"max_step={max_step!r} lies below the step floor of 1e-14 "
                          f"relative over [{t!r}, {t_end!r}]")

    next_idx = bisect.bisect_right(times, t + t_tol)  # the samples at the start
    if span <= 0.0:  # every sample is at the start
        return np.array(y * next_idx).reshape(-1, n)

    h = min(max_step, span / 100.0, 0.1, span)
    ys, accepted, rejected, refused = _loop_kernel(n, source)(
        f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit)
    log.debug("solve_ode: %d accepted, %d rejected steps, %d refused stages over [%g, %g]",
              accepted, rejected, refused, t0, t_end)
    return ys


def integrate(initial: State, kind: ModelKind, config: IntegratorConfig) -> Trajectory:
    """Integrate the model from ``initial`` up to ``config.t_end``.

    Raises :class:`SingularityError` if the positivity floor keeps rejecting
    steps and :class:`IntegrationError` on step-size underflow; both carry the
    last good time and state vector as ``last_t`` and ``last_y``.  The
    :class:`Trajectory` is built without the constructor's checks, which
    its samples pass by construction (that class says why).
    """
    check_state(initial, kind)
    if config.t_end <= initial.t:
        raise DomainError(
            f"t_end={config.t_end} must exceed the initial time {initial.t}")
    grid = sample_grid(initial.t, config.t_end, config.sample_interval)
    y0 = initial.q.tolist() + initial.qdot.tolist()
    ys = solve_ode(vector_field(kind), initial.t, y0, grid,
                   rel_tol=config.rel_tol, abs_tol=config.abs_tol,
                   max_step=config.max_step)
    return Trajectory._of_solve(kind, grid, ys)
