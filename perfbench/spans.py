"""Span recorder for the traced run, wrapping fireball's layers from outside.

Each wrapped call records one span (layer name, start, end, parent) in flat
arrays that stay in memory until the run ends.  Calls made outside a job
(the benchmark's own output checks) pass straight through and record
nothing.  Wrappers are installed at every attribute of a ``fireball``
module that holds the wrapped function, because callers look functions up
in different places: ``fireball.integrate`` is the function (it shadows the
submodule of the same name), and ``analytic`` and ``symmetry`` bind
``solve_ode`` and ``accel`` by name at import.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from array import array

import numpy as np

ROOT = "bench.job"

# (layer, module, attribute) of each wrapped function.  Every other binding of
# the same function object inside the package is found by scanning.
LAYERS = [
    ("cli.main", "fireball.cli", "main"),
    ("verification.drift_checks", "fireball.verification", "drift_checks"),
    ("verification.analytic_checks", "fireball.verification", "analytic_checks"),
    ("verification.symmetry_checks", "fireball.verification", "symmetry_checks"),
    ("verification.elliptic_checks", "fireball.verification", "elliptic_checks"),
    ("verification.hydro_checks", "fireball.verification", "hydro_checks"),
    ("integrate.integrate", "fireball.integrate", "integrate"),
    ("integrate.solve_ode", "fireball.integrate", "solve_ode"),
    ("dynamics.accel", "fireball.dynamics", "accel"),
    ("invariants.invariant_report", "fireball.invariants", "invariant_report"),
    ("invariants.values", "fireball.invariants", "hamiltonian_values"),
    ("invariants.values", "fireball.invariants", "ermakov_values"),
    ("invariants.values", "fireball.invariants", "noether_values"),
    ("analytic.angular_quadrature", "fireball.analytic", "angular_quadrature"),
    ("analytic.radial", "fireball.analytic", "radial"),
    ("symmetry.ode_residual", "fireball.symmetry", "ode_residual"),
    ("symmetry.scaled_trajectory", "fireball.symmetry", "scaled_trajectory"),
    ("symmetry.noether_condition_residual", "fireball.symmetry", "noether_condition_residual"),
    ("hydro.pde_residuals", "fireball.hydro", "pde_residuals"),
    ("hydro.total_energy", "fireball.hydro", "total_energy"),
]


class _StepLog(logging.Handler):
    """Reads accepted/rejected step counts from solve_ode's debug record."""

    def __init__(self, recorder: "SpanRecorder"):
        super().__init__(logging.DEBUG)
        self.recorder = recorder

    def emit(self, record):
        stack = self.recorder.stack
        if stack and str(record.msg).startswith("solve_ode:"):
            counters = self.recorder.counters.setdefault(stack[-1], {})
            counters["accepted_steps"] = int(record.args[0])
            counters["rejected_steps"] = int(record.args[1])


class SpanRecorder:
    """Spans in flat arrays indexed by span.  A span is appended when it
    starts, so every parent comes before its children."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[int, dict[str, int]] = {}
        self.stack: list[int] = []
        self._depth: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._log_state = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._ids)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``before(span, args, kwargs)`` may return replacement arguments;
        ``after(span, result)`` sees the result.
        """
        k = self._id(name)
        stack, depth = self.stack, self._depth
        names, parents, nested = self.name, self.parent, self.nested
        starts, ends, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(k)
            parents.append(stack[-1])
            nested.append(depth[k] > 0)
            ends.append(0.0)
            if before is not None:
                args, kwargs = before(i, args, kwargs)
            depth[k] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[k] -= 1
            if after is not None:
                after(i, result)
            return result

        return wrapper

    def job(self, fn):
        """Run ``fn`` as the root span of one job and return its result."""
        k = self._id(ROOT)
        i = len(self.start)
        self.name.append(k)
        self.parent.append(-1)
        self.nested.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    # -- installation ------------------------------------------------------

    def _count_rhs(self, span, args, kwargs):
        counters = self.counters.setdefault(span, {})
        counters["rhs_evals"] = 0
        f = args[0]

        def counted(t, y):
            counters["rhs_evals"] += 1
            return f(t, y)

        sample_times = args[3] if len(args) > 3 else kwargs["sample_times"]
        counters["samples"] = len(sample_times)
        return (counted,) + tuple(args[1:]), kwargs

    def _count_samples(self, span, trajectory):
        self.counters.setdefault(span, {})["samples"] = len(trajectory)

    def install(self):
        """Wrap every layer at each of its bindings inside the package."""
        hooks = {"integrate.solve_ode": (self._count_rhs, None),
                 "integrate.integrate": (None, self._count_samples)}
        originals = [(name, getattr(importlib.import_module(module), attr))
                     for name, module, attr in LAYERS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fireball" or n.startswith("fireball."))]
        for name, original in originals:
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)
        logger = logging.getLogger("fireball.integrate")
        handler = _StepLog(self)
        self._log_state = (logger, handler, logger.level, logger.propagate)
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False

    def uninstall(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()
        if self._log_state is not None:
            logger, handler, level, propagate = self._log_state
            logger.removeHandler(handler)
            logger.setLevel(level)
            logger.propagate = propagate
            self._log_state = None

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics over the spans with index in [lo, hi), which must
        hold whole jobs (a root span and all its descendants)."""
        n = hi - lo
        # Slicing copies, so the arrays stay free to grow afterwards.
        name = np.frombuffer(self.name[lo:hi], dtype=np.int_)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int_) - lo
        nested = np.frombuffer(self.nested[lo:hi], dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        def mask(layer):
            k = self._ids.get(layer)
            return name == k if k is not None else np.zeros(n, dtype=bool)

        def counter(layer, key, where=None):
            m = mask(layer) if where is None else mask(layer) & where
            idx = np.flatnonzero(m) + lo
            return sum(self.counters.get(int(i), {}).get(key, 0) for i in idx)

        out = {}
        for layer in dict.fromkeys(layer for layer, _, _ in LAYERS):
            m = mask(layer)
            out[f"{layer}.s"] = float(np.sum(dur[m & ~nested]))
            out[f"{layer}.calls"] = int(np.count_nonzero(m))
            out[f"{layer}.self_s"] = float(np.sum(self_time[m]))
        root = mask(ROOT)
        out["trace.wall_s"] = float(np.sum(dur[root]))
        out["trace.unaccounted_s"] = float(np.sum(self_time[root]))
        out["integrate.integrate.samples"] = counter("integrate.integrate", "samples")
        for key in ("rhs_evals", "accepted_steps", "rejected_steps", "samples"):
            out[f"integrate.solve_ode.{key}"] = counter("integrate.solve_ode", key)
        under_quadrature = np.zeros(n, dtype=bool)
        under_quadrature[has_parent] = mask("analytic.angular_quadrature")[parent[has_parent]]
        out["analytic.angular_quadrature.rhs_evals"] = counter(
            "integrate.solve_ode", "rhs_evals", under_quadrature)
        return out
