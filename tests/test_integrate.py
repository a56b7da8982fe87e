import ast
import contextlib
import functools
import hashlib
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fireball import (AngularSolution, DomainError, IntegrationError, IntegratorConfig,
                      ModelKind, RadialSolution, SingularityError, State, Trajectory,
                      angular_quadrature, energies, integrate, one_d_solution,
                      radial, time_reparam)
from fireball import native
from fireball.analytic import angular_potential
from fireball.cli import CSV_SOURCE, main
from fireball.dynamics import FieldSource, _angular_field, vector_field
from fireball.integrate import (_A, _C, _CAPPED_ERR, _E, _LOOP, _failure, _loop_kernel,
                                _run_python, c_source, sample_grid, solve_ode)
from fireball.invariants import hamiltonian_values, report_source
from fireball.models import radius
from fireball.verification import default_initial_state
from conftest import fresh_env
from reference import angular_start
import sanitizers


def tight(t_end, interval=0.01, **kw):
    return IntegratorConfig(t_end=t_end, sample_interval=interval,
                            rel_tol=kw.pop("rel_tol", 1e-12),
                            abs_tol=kw.pop("abs_tol", 1e-14), **kw)


class TestConfig:
    def test_tolerance_bounds(self):
        with pytest.raises(DomainError):
            IntegratorConfig(t_end=1.0, rel_tol=0.0)
        with pytest.raises(DomainError):
            IntegratorConfig(t_end=1.0, rel_tol=1.5)
        with pytest.raises(DomainError):
            IntegratorConfig(t_end=1.0, sample_interval=-0.1)

    @pytest.mark.parametrize("settings, message", [
        *(({name: math.nan}, f"{name} must not be NaN")
          for name in ("t_end", "rel_tol", "abs_tol", "max_step", "sample_interval")),
        *(({name: value}, f"{name} must be finite")
          for name in ("t_end", "sample_interval") for value in (math.inf, -math.inf)),
        *(({name: value}, f"{name} must lie in (0, 1), got {value}")
          for name in ("rel_tol", "abs_tol") for value in (0.0, 1.0, -1e-3, 2.0, math.inf)),
        *(({name: value}, f"{name} must be positive")
          for name in ("sample_interval", "max_step") for value in (0.0, -0.5)),
        ({"max_step": -math.inf}, "max_step must be positive"),
    ])
    def test_each_refusal_says_what_is_wrong(self, settings, message):
        with pytest.raises(DomainError) as refused:
            IntegratorConfig(**{"t_end": 1.0, **settings})
        assert str(refused.value) == message

    def test_t_end_must_follow_start(self):
        s = State(t=2.0, q=[1.0], qdot=[0.0])
        with pytest.raises(DomainError):
            integrate(s, ModelKind.ONE_D, IntegratorConfig(t_end=1.0))


class TestSampleGrid:
    @pytest.mark.parametrize("interval", [0.0, -0.0, -0.5, math.inf, -math.inf, math.nan])
    def test_interval_must_be_positive_and_finite(self, interval):
        with pytest.raises(DomainError, match=re.escape(f"interval={interval!r} must be "
                                                        "positive and finite")):
            sample_grid(0.0, 1.0, interval)

    def test_exact_division(self):
        grid = sample_grid(0.0, 1.0, 0.25)
        assert grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_appends_t_end(self):
        grid = sample_grid(0.0, 1.0, 0.3)
        assert grid[-1] == 1.0 and grid[-2] == pytest.approx(0.9)
        assert np.all(np.diff(grid) > 0)

    def test_t_end_before_t0_raises(self):
        with pytest.raises(DomainError):
            sample_grid(1.0, 0.0, 0.01)
        with pytest.raises(DomainError):
            sample_grid(0.0, math.nan, 0.01)
        assert sample_grid(1.0, 1.0, 0.01).tolist() == [1.0]

    def test_a_span_shorter_than_the_snap_keeps_t0(self):
        # t_end lies within the snap tolerance of t0: t_end is appended, and
        # only a later point than t0 is ever moved onto t_end
        assert sample_grid(0.0, 1e-10, 0.01).tolist() == [0.0, 1e-10]
        assert sample_grid(3.0, 3.0 + 1e-9, 0.5).tolist() == [3.0, 3.0 + 1e-9]
        assert sample_grid(0.0, 0.5 + 1e-12, 0.5).tolist() == [0.0, 0.5 + 1e-12]

    def test_repeated_times_are_refused_before_the_solve(self, monkeypatch):
        # the floats near 1e16 are 2 apart: 9 samples, 5 distinct times
        def solve(*args, **kwargs):
            raise AssertionError("the grid reached the solver")

        monkeypatch.setattr(sys.modules["fireball.integrate"], "solve_ode", solve)
        start = State(t=1e16, q=[1.0], qdot=[0.0])
        config = IntegratorConfig(t_end=1e16 + 8.0, sample_interval=1.0)
        for refused in (lambda: sample_grid(1e16, 1e16 + 8.0, 1.0),
                        lambda: integrate(start, ModelKind.ONE_D, config)):
            with pytest.raises(DomainError) as err:
                refused()
            assert str(err.value) == "sample times must be strictly increasing"


class TestAccuracy:
    def test_1d_matches_closed_form(self):
        s = State(t=0.0, q=[1.0], qdot=[0.0])
        traj = integrate(s, ModelKind.ONE_D, tight(1.0))
        assert abs(traj.qs[-1, 0] - math.sqrt(2.0)) <= 1e-8

    def test_2d_symmetric_reduces_to_1d(self):
        s = State(t=0.0, q=[1.0, 1.0], qdot=[0.0, 0.0])
        traj = integrate(s, ModelKind.TWO_D, tight(1.0))
        assert abs(traj.qs[-1, 0] - math.sqrt(2.0)) <= 1e-8
        assert abs(traj.qs[-1, 1] - math.sqrt(2.0)) <= 1e-8

    def test_3d_quadratic_radius(self):
        s = State(t=0.0, q=[1.0, 1.0, 1.0], qdot=[0.0, 0.0, 0.0])
        traj = integrate(s, ModelKind.THREE_D, tight(1.0))
        r_sq = float(np.sum(traj.qs[-1] ** 2))
        assert abs(r_sq - 6.0) <= 1e-7  # 2 H t^2 + r0^2 with H = 3/2, J = 0

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_energy_drift(self, kind):
        rng = np.random.default_rng(3)
        cfg = IntegratorConfig(t_end=100.0, sample_interval=0.5,
                               rel_tol=1e-10, abs_tol=1e-12)
        for _ in range(3):
            s = State(t=0.0, q=rng.uniform(0.6, 1.8, kind.dim),
                      qdot=rng.uniform(-0.8, 0.8, kind.dim))
            traj = integrate(s, kind, cfg)
            H = hamiltonian_values(traj.qs, traj.qdots, kind)
            assert np.max(np.abs(H - H[0])) / H[0] <= 1e-8

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_time_reversal(self, kind):
        rng = np.random.default_rng(4)
        s = State(t=0.0, q=rng.uniform(0.6, 1.8, kind.dim),
                  qdot=rng.uniform(-0.5, 0.5, kind.dim))
        fwd = integrate(s, kind, tight(5.0, interval=1.0))
        turned = State(t=0.0, q=fwd.qs[-1], qdot=-fwd.qdots[-1])
        back = integrate(turned, kind, tight(5.0, interval=1.0))
        assert np.all(np.abs(back.qs[-1] - s.q) <= 1e-6)
        assert np.all(np.abs(back.qdots[-1] + s.qdot) <= 1e-6)

    def test_fifth_order_convergence(self):
        # fat tolerances + max_step pin the step size; end error ~ h^5
        errors = []
        for h in (0.1, 0.05, 0.025):
            ys = solve_ode(vector_field(ModelKind.ONE_D), 0.0, [1.0, 0.0], [0, 2],
                           rel_tol=0.9, abs_tol=0.9, max_step=h)
            X_exact, _ = one_d_solution(0.5, 0.0, 2.0)
            errors.append(abs(ys[-1, 0] - float(X_exact)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(4.0 <= p <= 6.0 for p in orders), (errors, orders)

    def test_tightening_tolerance_reduces_error(self):
        s = State(t=0.0, q=[1.0], qdot=[0.0])
        errs = []
        for rel in (1e-6, 1e-9, 1e-12):
            traj = integrate(s, ModelKind.ONE_D,
                             IntegratorConfig(t_end=10.0, sample_interval=10.0,
                                              rel_tol=rel, abs_tol=rel * 1e-2))
            X_exact, _ = one_d_solution(0.5, 0.0, 10.0)
            errs.append(abs(traj.qs[-1, 0] - float(X_exact)))
        assert errs[0] > errs[1] > errs[2]


class TestTrajectory:
    def test_strictly_increasing_times_required(self):
        with pytest.raises(DomainError):
            Trajectory(kind=ModelKind.ONE_D, times=[0.0, 0.0],
                       qs=[[1.0], [1.0]], qdots=[[0.0], [0.0]])

    def test_positive_samples_required(self):
        with pytest.raises(DomainError):
            Trajectory(kind=ModelKind.ONE_D, times=[0.0, 1.0],
                       qs=[[1.0], [-1.0]], qdots=[[0.0], [0.0]])

    def test_nan_variance_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                Trajectory(kind=ModelKind.ONE_D, times=[0.0, 1.0],
                           qs=[[1.0], [bad]], qdots=[[0.0], [0.0]])

    def test_nan_time_rejected(self):
        # a lone NaN sample has no neighbour to fail the ordering test
        for times in ([0.0, math.nan, 2.0], [math.nan], [0.0, math.inf]):
            with pytest.raises(DomainError):
                Trajectory(kind=ModelKind.ONE_D, times=times,
                           qs=[[1.0]] * len(times), qdots=[[0.0]] * len(times))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_rates_required(self, bad):
        with pytest.raises(DomainError):
            Trajectory(kind=ModelKind.ONE_D, times=[0.0, 1.0],
                       qs=[[1.0], [1.0]], qdots=[[0.0], [bad]])

    @pytest.mark.parametrize("times, q, qdot, message", [
        ([0.0, math.nan, 2.0], 1.0, 0.0, "sample times must be finite"),
        ([math.nan], 1.0, 0.0, "sample times must be finite"),
        ([-math.inf, 0.0], 1.0, 0.0, "sample times must be finite"),
        ([0.0, math.inf], 1.0, 0.0, "sample times must be finite"),
        ([1.0, math.inf, 0.0], 1.0, 0.0, "sample times must be finite"),
        ([0.0, 2.0, 1.0], 1.0, 0.0, "sample times must be strictly increasing"),
        ([0.0, 0.0], 1.0, 0.0, "sample times must be strictly increasing"),
        ([0.0, 1.0], 0.0, 0.0, "trajectory contains non-positive or infinite variances"),
        ([0.0, 1.0], math.inf, 0.0, "trajectory contains non-positive or infinite variances"),
        ([0.0, 1.0], math.nan, 0.0, "trajectory contains non-positive or infinite variances"),
        ([0.0, 1.0], 1.0, -math.inf, "trajectory contains non-finite rates"),
        ([0.0, 1.0], 1.0, math.nan, "trajectory contains non-finite rates"),
    ])
    def test_each_refusal_says_what_is_wrong(self, times, q, qdot, message):
        # the bad value sits in the last sample; the earlier ones are valid
        n = len(times)
        with pytest.raises(DomainError) as refused:
            Trajectory(kind=ModelKind.ONE_D, times=times,
                       qs=[[1.0]] * (n - 1) + [[q]], qdots=[[0.0]] * (n - 1) + [[qdot]])
        assert str(refused.value) == message

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
    def test_times_must_be_1d(self, shape):
        # refused by the first check: (3, 1) times once passed it, since
        # only their size was compared, and (1, 3) ones failed numpy's
        # truth test in the next
        with pytest.raises(DomainError) as refused:
            Trajectory(kind=ModelKind.TWO_D, times=np.arange(3.0).reshape(shape),
                       qs=np.ones((3, 2)), qdots=np.ones((3, 2)))
        assert str(refused.value) == (f"trajectory arrays inconsistent: times {shape}, "
                                      "qs (3, 2), qdots (3, 2), model dim 2")

    def test_an_empty_trajectory_is_valid(self):
        assert len(Trajectory(kind=ModelKind.TWO_D, times=[], qs=np.empty((0, 2)),
                              qdots=np.empty((0, 2)))) == 0


class TestGuards:
    def test_singularity_error_carries_last_state(self):
        # contrived ODE heading straight into a floor on its first component;
        # the second component is the time, so the whole state is checked
        def f(t, y):
            if not y[0] > 1e-12:
                raise DomainError("below the floor")
            return np.array([-1.0, 1.0])

        with pytest.raises(SingularityError) as err:
            solve_ode(f, 0.0, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        last_t, last_y = err.value.last_t, err.value.last_y
        assert last_t == pytest.approx(1.0, abs=1e-6)
        assert last_y.shape == (2,) and last_y[0] > 0.0
        assert last_y[1] == pytest.approx(last_t, rel=1e-12)

    def test_floor_raised_by_f_rejects_steps(self):
        # the model fields' form of the guard: f itself refuses the stage
        def f(t, y):
            if not y[0] > 1e-12:
                raise DomainError("below the floor")
            return (-1.0,)

        with pytest.raises(SingularityError) as err:
            solve_ode(f, 0.0, [1.0], np.array([0.0, 2.0]))
        assert err.value.last_y[0] > 1e-12
        assert err.value.last_t == pytest.approx(1.0, abs=1e-6)

    def test_step_underflow_on_blowup(self):
        def f(t, y):
            return [v * v for v in y]  # blows up at t = 1 from y(0) = 1

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as err:
                solve_ode(f, 0.0, np.array([1.0]), np.array([0.0, 2.0]))
        assert err.value.last_t == pytest.approx(1.0, abs=1e-3)

    def test_integration_error_names_last_good_time(self):
        def f(t, y):
            return [v * v for v in y]

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as err:
                solve_ode(f, 0.0, np.array([1.0]), np.array([0.0, 2.0]))
        assert "t=" in str(err.value)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 0.5, 2.0], [0.0, 1.0, 1.0 - 1e-9, 2.0]],
                             ids=["back-a-step", "back-by-1e-9"])
    def test_decreasing_sample_times_raise(self, times):
        with pytest.raises(DomainError):
            solve_ode(lambda t, y: (-y[0],), 0.0, [1.0], np.array(times))

    @pytest.mark.parametrize("t0,times", [
        (0.0, [0.0, 1.0, math.nan]), (0.0, [math.nan]), (0.0, [0.0, 1.0, math.inf]),
        (0.0, [math.inf]), (math.nan, [0.0, 1.0])],
        ids=["landing-nan-sample", "landing-nan", "landing-inf-sample", "landing-inf",
             "landing-nan-t0"])
    def test_non_finite_times_raise(self, t0, times):
        # NaN fails every comparison the loop makes: unchecked, these
        # would return y0 for every sample
        with pytest.raises(DomainError):
            solve_ode(lambda t, y: (1.0,), t0, [0.0], np.array(times))

    def test_empty_state_raises(self):
        with pytest.raises(DomainError):
            solve_ode(lambda t, y: (), 0.0, [], [0.0, 1.0])

    def test_empty_grid_raises(self):
        with pytest.raises(DomainError):
            solve_ode(lambda t, y: (1.0,), 0.0, [1.0], [])

    @pytest.mark.parametrize("grid", [5.0, [[0.0, 1.0]]], ids=["scalar", "2-d"])
    def test_grid_of_other_shape_raises(self, grid):
        with pytest.raises(DomainError, match="must be a 1-d sequence"):
            solve_ode(lambda t, y: (1.0,), 0.0, [1.0], grid)

    def test_nan_max_step_raises(self):
        # a NaN max_step makes every step NaN: unchecked, a field that
        # accepts NaN stages would be stepped without end
        def f(t, y):
            if len(calls) > 1000:
                raise RuntimeError("runaway loop")
            calls.append(t)
            return (1.0,)

        calls = []
        with pytest.raises(DomainError):
            solve_ode(f, 0.0, [0.0], np.array([0.0, 1.0]), max_step=math.nan)
        assert not calls

    def test_sample_times_before_t0_raise(self):
        with pytest.raises(DomainError):
            solve_ode(lambda t, y: (1.0,), 1.0, [1.0], np.array([0.0, 0.5, 2.0]))
        # within the 1e-14 tolerance of t0 a sample is the start
        ys = solve_ode(lambda t, y: (1.0,), 1.0, [1.0], np.array([1.0 - 1e-16, 2.0]))
        assert ys[:, 0].tolist() == [1.0, pytest.approx(2.0, rel=1e-14)]

    def test_repeated_sample_times_are_the_same_sample(self):
        ys = solve_ode(lambda t, y: (-y[0],), 0.0, [1.0], np.array([0.0, 0.5, 0.5, 1.0]))
        assert ys[1].tobytes() == ys[2].tobytes()


def counted(f):
    """``f`` with a call counter in ``.calls``."""
    def wrapper(t, y):
        wrapper.calls += 1
        return f(t, y)
    wrapper.calls = 0
    return wrapper


def outcome(solver, f, *args, **kwargs):
    """The samples, or the raised error's type and last state."""
    try:
        return solver(f, *args, **kwargs)
    except IntegrationError as exc:  # SingularityError included
        return type(exc), exc.last_t, exc.last_y.tolist()


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


# Where a C compiler is on PATH, the native loop must serve every declared
# field of the package.
HAVE_CC = shutil.which("cc") is not None


def assert_native(field, n):
    """The native loop serves the declared field whenever cc is on PATH."""
    if HAVE_CC:
        assert hasattr(_loop_kernel(n, field), "library")


def solve_recorded(f, *args, **kwargs):
    """The outcome of solve_ode and the arguments of its ``solve_ode:`` debug
    records (none when it raised)."""
    logger, records = logging.getLogger("fireball.integrate"), []
    handler, level = logging.Handler(), logger.level
    handler.emit = records.append
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        got = outcome(solve_ode, f, *args, **kwargs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return got, [r.args for r in records if str(r.msg).startswith("solve_ode:")]


def assert_native_matches_python(field, t0, y0, *args, python=None, **kwargs):
    """The declared ``field``, which the native loop inlines whenever cc is
    on PATH, and ``python``, a called field of the same rates (a counting
    wrapper of ``field`` unless given), which the Python stepper serves,
    give the same samples (or the same error at the same state) bit for bit
    and the same ``solve_ode:`` record."""
    assert isinstance(field, FieldSource)
    got, record = solve_recorded(field, t0, y0, *args, **kwargs)
    assert_native(field, len(y0))
    want, want_record = solve_recorded(python or counted(field), t0, y0, *args, **kwargs)
    assert_same(got, want)
    assert record == want_record
    return got


# A failing example of these bit-exactness tests integrates long grids, and
# shrinking it took minutes; the first failure says enough.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


def rooted_trees(order):
    """The rooted trees of ``order`` nodes, each the sorted tuple of its
    root's subtrees: every tree of two or more nodes is a smaller tree with
    one more subtree on its root."""
    if order == 1:
        return [()]
    return sorted({tuple(sorted(tree + (sub,))) for size in range(1, order)
                   for sub in rooted_trees(size) for tree in rooted_trees(order - size)})


def tree_size(tree):
    return 1 + sum(map(tree_size, tree))


def tree_density(tree):
    return tree_size(tree) * math.prod(map(tree_density, tree))


def stage_weights(tree, a):
    """The elementary weight of ``tree`` at each stage: the product over
    the root's subtrees of sum_j a_ij times the subtree's weight at j."""
    weights = [Fraction(1)] * len(a)
    for sub in tree:
        inner = stage_weights(sub, a)
        weights = [w * sum((x * inner[j] for j, x in enumerate(row)), Fraction(0))
                   for w, row in zip(weights, a)]
    return weights


class TestTableau:
    """The Dormand & Prince (1980) coefficients that the Python stepper and
    the C loop read, checked against the conditions that define them, as
    exact rationals of the stored floats, rather than against a copy."""

    A = [[Fraction(x) for x in row] for row in _A]
    B5 = [*A[6], Fraction(0)]  # the propagated solution: stage 7's row of A
    B4 = [b - Fraction(e) for b, e in zip(B5, _E)]  # the embedded 4th order

    def test_rows_sum_to_the_nodes(self):
        assert len(_A) == len(_C) == len(_E) == 7
        for i, (row, c) in enumerate(zip(self.A, _C)):
            assert len(row) == i
            assert abs(float(sum(row, Fraction(0)) - Fraction(c))) <= 1e-15

    def test_the_step_factor_cap_binds_below_the_skipped_power(self):
        # an accepted step at err <= _CAPPED_ERR takes the cap 5.0 without
        # computing 0.9 * err ** -0.2, which is at least 5.04 there and
        # grows as err falls; both steppers skip the power alike
        assert 0.9 * _CAPPED_ERR ** -0.2 >= 5.04
        assert all(0.9 * err ** -0.2 > 5.0 for err in (5e-324, 1e-300, 1e-10, 1e-4))
        assert f"\n#define CAPPED_ERR {_CAPPED_ERR!r}\n" in c_source(2, OSCILLATOR)
        assert _LOOP.count("0.9 * pow(err, -0.2)") == 2
        assert "factor = err > CAPPED_ERR ? 0.9 * pow(err, -0.2) : 5.0;" in _LOOP

    def test_first_same_as_last(self):
        # stage 7 evaluates f at the new state, at c = 1, so it is stage 1
        # of the next step; the stepper skips the weights that are zero
        assert _C[6] == 1.0 and len(_A[6]) == 6
        assert _A[6][1] == _E[1] == 0.0

    def test_the_trees(self):
        assert [len(rooted_trees(order)) for order in range(1, 6)] == [1, 1, 2, 4, 9]

    @pytest.mark.parametrize("weights,order", [("B5", 5), ("B4", 4)], ids=["b5", "b4"])
    def test_order_conditions(self, weights, order):
        b = getattr(self, weights)
        for tree in (tree for size in range(1, order + 1) for tree in rooted_trees(size)):
            value = sum((w * x for w, x in zip(b, stage_weights(tree, self.A))), Fraction(0))
            assert abs(float(value - Fraction(1, tree_density(tree)))) <= 1e-15, tree


# Declared twins of called fields, which the native loop inlines.
GUARD = FieldSource(args=("x", "v"), positive="x > 0.0", refusal='f"x={x!r}"',
                    outputs=("v", "-1.0"))
OSCILLATOR = FieldSource(args=("x", "v"), positive="-2.0 < x and x < 2.0",
                         refusal='f"x={x!r}"', outputs=("v", "-x"))
N1 = FieldSource(args=("x",), positive="-10.0 < x and x < 10.0", refusal='f"x={x!r}"',
                 outputs=("-0.5 * x + 2.0 * x / (1.0 + x * x)",))
N3 = FieldSource(args=("x", "y", "z"), positive="-1e6 < x and x < 1e6", refusal='f"x={x!r}"',
                 outputs=("y", "-x * z", "x * y - 0.1 * z"))
LORENZ = FieldSource(args=("x", "y", "z"), positive="-1e6 < x and x < 1e6",
                     refusal='f"x={x!r}"',
                     outputs=("10.0 * (y - x)", "x * (28.0 - z) - y", "x * y - 8.0 / 3.0 * z"))

# Every declared field of the package.
PACKAGE_FIELDS = [vector_field(kind) for kind in ModelKind] + [
    _angular_field(kind) for kind in (ModelKind.TWO_D, ModelKind.ELLIPTIC_3D)]

# Grids and settings of the custom-size runs: steps landing on a fine grid,
# steps set by the tolerance, and steps capped by max_step.
CUSTOM_RUNS = ((sample_grid(0.0, 2.0, 1e-3), {}), (np.array([0.0, 0.7, 2.0]), {"rel_tol": 1e-8}),
               (np.array([0.0, 2.0]), {"max_step": 0.3}))


class TestScalingCovariance:
    """The paper's scaling map q -> beta q, qdot -> qdot / beta,
    t -> beta^2 t sends solutions to solutions.  For beta a power of two
    every operation of a 1d or 2d step scales exactly, and with a negligible
    abs_tol the relative error norm is unchanged, so the stepper must return
    the scaled samples bit for bit.  In 3d and elliptic, pow(beta^k P, 2/3)
    is not exactly beta^(2k/3) pow(P, 2/3), and a step decision can differ:
    over 3,000 draws the samples differed by at most 1.3e-12 of each
    component's largest magnitude (3d; 1.2e-12 elliptic).  Spans of 5 and
    below keep span/100, not the absolute cap 0.1, as the first step, so
    that it scales too."""

    @pytest.mark.parametrize("called", [False, True], ids=["native", "python"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=20, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_scaled_start_gives_the_scaled_samples(self, kind, called, data):
        d = kind.dim
        q = [data.draw(st.floats(0.6, 1.8)) for _ in range(d)]
        qdot = [data.draw(st.floats(-0.8, 0.8)) for _ in range(d)]
        beta = data.draw(st.sampled_from([0.125, 0.25, 0.5]))
        # a called wrapper runs on the Python stepper
        field = counted(vector_field(kind)) if called else vector_field(kind)
        grid = sample_grid(0.0, 5.0, 0.25)
        base = solve_ode(field, 0.0, q + qdot, grid, rel_tol=1e-10, abs_tol=1e-300)
        got = solve_ode(field, 0.0, [beta * x for x in q] + [x / beta for x in qdot],
                        beta * beta * grid, rel_tol=1e-10, abs_tol=1e-300)
        want = np.hstack([beta * base[:, :d], base[:, d:] / beta])
        if kind in (ModelKind.ONE_D, ModelKind.TWO_D):
            assert got.tobytes() == want.tobytes()
        else:
            assert (np.abs(got - want) / np.abs(want).max(axis=0)).max() <= 1e-11
        if not called:
            assert_native(field, 2 * d)


class TestTimeReversal:
    """The Lagrangian is even in qdot, so the flow is reversible: a run to
    t = 25 from (q, qdot), restarted from (q(25), -qdot(25)) for 25 more,
    comes back to (q, -qdot).  At the default tolerances, over 5,500 draws
    per model (3,000 of them from this strategy), it came back within
    2.4e-9 of every component; the bound is twice that."""

    @pytest.mark.parametrize("called", [False, True], ids=["native", "python"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_flipped_rates_run_back_to_the_start(self, kind, called, data):
        d = kind.dim
        q = [data.draw(st.floats(0.6, 1.8)) for _ in range(d)]
        qdot = [data.draw(st.floats(-0.8, 0.8)) for _ in range(d)]
        field = counted(vector_field(kind)) if called else vector_field(kind)
        end = solve_ode(field, 0.0, q + qdot, [0.0, 25.0])[-1].tolist()
        back = solve_ode(field, 0.0, end[:d] + [-v for v in end[d:]], [0.0, 25.0])[-1]
        assert np.abs(back - (q + [-v for v in qdot])).max() <= 5e-9
        if not called:
            assert_native(field, 2 * d)


class TestToleranceProportionality:
    """The radial law is exact for every model, so r measures the global
    error at any horizon.  With abs_tol = rel_tol / 100, to t = 1e3 with a
    sample every 100, the worst relative error of r over three states must
    stay within 10 rel_tol at rel_tol 1e-6 and 1e-12, and fall by at least
    0.6 decades per decade of tolerance.  Over 1,000 such triples per model,
    it reached 0.37 rel_tol at 1e-6 and 2.5 rel_tol at 1e-12, and fell by
    0.80 decades per decade at the least."""

    @pytest.mark.parametrize("called", [False, True], ids=["native", "python"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_error_of_r_follows_the_tolerance(self, kind, called, data):
        d = kind.dim
        field = counted(vector_field(kind)) if called else vector_field(kind)
        grid = sample_grid(0.0, 1e3, 100.0)
        worst = {1e-6: 0.0, 1e-12: 0.0}
        for _ in range(3):
            q = [data.draw(st.floats(0.6, 1.8)) for _ in range(d)]
            qdot = [data.draw(st.floats(-0.8, 0.8)) for _ in range(d)]
            r_exact, _ = radial(RadialSolution.from_state(State(t=0.0, q=q, qdot=qdot), kind),
                                grid)
            for tol in worst:
                ys = solve_ode(field, 0.0, q + qdot, grid, rel_tol=tol, abs_tol=tol / 100)
                r, _ = radius(ys[:, :d], ys[:, d:], kind)
                worst[tol] = max(worst[tol], float(np.max(np.abs(r - r_exact) / r_exact)))
        assert worst[1e-6] <= 10 * 1e-6 and worst[1e-12] <= 10 * 1e-12
        assert math.log10(worst[1e-6] / worst[1e-12]) / 6.0 >= 0.6
        if not called:
            assert_native(field, 2 * d)


class TestReferenceStepper:
    """The hand-written Python stepper is the reference: the C loop, which
    inlines a declared field, must match it bit for bit, so each case that
    can be declared runs both.  Fields that only a call can give (counting
    calls, refusing some of them) run the Python stepper alone and are
    checked by their own assertions."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_model_fields(self, kind, data):
        d = kind.dim
        q = [data.draw(st.floats(0.6, 1.8)) for _ in range(d)]
        qdot = [data.draw(st.floats(-0.8, 0.8)) for _ in range(d)]
        t0 = data.draw(st.floats(0.0, 3.0))
        landing = sample_grid(t0, t0 + 0.5, 1e-3)
        tolerance_bound = sample_grid(t0, 1e4, 1e3)
        for grid in (landing, tolerance_bound):
            assert_native_matches_python(vector_field(kind), t0, q + qdot, grid)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(excess=st.floats(0.0, 40.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_fused_angular_fields(self, kind, excess, sign):
        # invariant = U(pi/4) + excess
        v0 = sign * math.sqrt(2.0 * excess)
        assert_native_matches_python(_angular_field(kind), 0.0, angular_start(math.pi / 4.0, v0),
                                     sample_grid(0.0, 3.0, 0.01), rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(invariant=st.floats(2.5, 40.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_guarded_angular_field(self, invariant, sign):
        # angular_quadrature's field, made to refuse every 19th call too, so
        # that about a third of the steps are refused at one stage or another
        field, refusals, calls = _angular_field(ModelKind.TWO_D), [], [0]

        def f(t, y):
            calls[0] += 1
            if calls[0] % 19 == 0:
                refusals.append(y)
                raise DomainError("refused stage")
            return field(t, y)

        start = angular_start(math.pi / 4.0, sign * math.sqrt(2.0 * (invariant - 2.0)))
        grid = sample_grid(0.0, 3.0, 0.01)
        got = solve_ode(f, 0.0, start, grid, rel_tol=1e-12, abs_tol=1e-12)
        assert refusals
        # a refusal only halves the step: the samples stay near the unguarded
        # run's (at most 1.3e-8 apart over 80 such states)
        want = solve_ode(field, 0.0, start, grid, rel_tol=1e-12, abs_tol=1e-12)
        assert np.abs(got - want).max() <= 1e-6

    def test_angular_field_refuses_out_of_range_stages(self):
        # at this invariant some elliptic stages step u out of the open
        # quadrant
        kind = ModelKind.ELLIPTIC_3D
        phi0, invariant = math.atan(1.0 / math.sqrt(2.0)), 1e4
        start = angular_start(
            phi0, math.sqrt(2.0 * (invariant - float(angular_potential(phi0, kind)))))
        field, refusals = _angular_field(kind), []

        def f(t, y):
            try:
                return field(t, y)
            except DomainError:
                refusals.append(y)
                raise

        # the Python stepper calls f, and the C loop refuses the same stages
        got = assert_native_matches_python(field, 0.0, start, np.linspace(0.0, 2.0, 11),
                                           python=f, rel_tol=1e-8, abs_tol=1e-8)
        assert isinstance(got, np.ndarray) and refusals
        assert all(not (y[0] > 0.0 and y[1] > 0.0) for y in refusals)
        # at a loose tolerance a step is accepted where every next step
        # refuses: the same error at the same state
        got = assert_native_matches_python(field, 0.0, start, np.linspace(0.0, 2.0, 11),
                                           rel_tol=1e-2, abs_tol=1e-2)
        assert got[0] is SingularityError

    def test_guard_singularity_is_the_same(self):
        # a field that refuses x <= 0 while x falls towards 0
        got = assert_native_matches_python(GUARD, 0.0, [1.0, 0.0], np.array([0.0, 3.0]))
        assert got[0] is SingularityError

    def test_domain_error_mid_step(self):
        # every 11th call refuses its stage.  Each step that would land on
        # the first sample, t = 0.05, is refused at its 5th or 6th stage and
        # halved, so the run creeps up to the sample until the step floor
        # stops it 1.6e-14 short, with the closed form's state
        calls = [0]

        def f(_t, y):
            calls[0] += 1
            if calls[0] % 11 == 0:
                raise DomainError("refused stage")
            return y[2], y[3], -y[0], -2.0 * y[1]

        with pytest.raises(SingularityError, match="domain refusals forced the step below"
                                                   " the floor") as err:
            solve_ode(f, 0.0, [1.0, 0.5, 0.0, 0.3], sample_grid(0.0, 5.0, 0.05))
        t, w = err.value.last_t, math.sqrt(2.0)
        assert 0.05 - 1e-13 < t < 0.05
        exact = [math.cos(t), 0.5 * math.cos(w * t) + 0.3 / w * math.sin(w * t),
                 -math.sin(t), -0.5 * w * math.sin(w * t) + 0.3 * math.cos(w * t)]
        assert np.abs(err.value.last_y - exact).max() <= 1e-12

    def test_negative_zero_crossing_zero(self):
        # the first component starts at -0.0 and then changes sign, so both
        # branches of the error norm's |x| run, at -0.0 too
        field, crossings = OSCILLATOR, []

        def f(t, y):
            crossings.append(y[0] > 0.0)
            return field(t, y)

        got = assert_native_matches_python(field, 0.0, [-0.0, -1.0], sample_grid(0.0, 10.0, 0.1),
                                           python=f)
        assert math.copysign(1.0, got[0, 0]) == -1.0
        assert True in crossings and False in crossings

    def test_nan_rate_rejects_the_step(self, caplog):
        # the 40th call returns a NaN rate: err is NaN, and that step is
        # rejected, not accepted
        def make_field(nan_call=40):
            calls = [0]

            def f(_t, y):
                calls[0] += 1
                return y[1], math.nan if calls[0] == nan_call else -y[0]
            return f

        grid = sample_grid(0.0, 5.0, 0.5)
        with caplog.at_level(logging.DEBUG, logger="fireball.integrate"):
            got = solve_ode(make_field(), 0.0, [1.0, 0.0], grid)
            solve_ode(make_field(nan_call=0), 0.0, [1.0, 0.0], grid)
        assert np.isfinite(got).all()
        nan_rejected, clean_rejected = [r.args[1] for r in caplog.records
                                        if str(r.msg).startswith("solve_ode:")]
        assert nan_rejected > clean_rejected

    @pytest.mark.parametrize("field,python,y0", [
        (N1, None, [1.3]),
        # rates returned as a 1-d array give the bits of the C loop's doubles
        (N3, lambda t, y: np.array(N3(t, y)), [0.2, 1.0, -0.4]),
        (LORENZ, None, [1.0, 1.0, 1.0]),
    ], ids=["n1", "n3-array", "n3-lorenz"])
    def test_custom_sizes(self, field, python, y0):
        for grid, kw in CUSTOM_RUNS:
            assert_native_matches_python(field, 0.0, y0, grid, python=python, **kw)

    def test_time_dependent_field(self):
        # the declared fields are autonomous; a called field reads the stage
        # times t + c h, checked here against x' = -x/2 + sin t's closed form
        # (errors of 2e-15, 6.7e-10 and 9.7e-12; 1e-5 to 1e-4 with c2 in
        # place of c3)
        for (grid, kw), bound in zip(CUSTOM_RUNS, (1e-12, 1e-8, 1e-10)):
            ys = solve_ode(lambda t, y: [-0.5 * y[0] + math.sin(t)], 0.0, [1.3], grid, **kw)
            exact = 0.4 * np.sin(grid) - 0.8 * np.cos(grid) + 2.1 * np.exp(-0.5 * grid)
            assert np.abs(ys[:, 0] - exact).max() <= bound

    @pytest.mark.parametrize("reply", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
    def test_field_of_wrong_length_raises(self, reply):
        # at the start, at a stage of the first step (the 3rd call) and of a
        # later one (the 40th): the stages must not drop or ignore a rate
        for bad_call in (1, 3, 40):
            calls = [0]

            def f(t, y):
                calls[0] += 1
                return reply if calls[0] == bad_call else (y[1], -y[0])

            with pytest.raises(ValueError):
                solve_ode(f, 0.0, [1.0, 0.0], np.array([0.0, 1.0]))
            assert calls[0] == bad_call


def model_start(kind):
    """A generic start state of the model as a flat list, q then qdot."""
    return [1.0, 1.3, 0.9][:kind.dim] + [-0.2, 0.35, 0.15][:kind.dim]


class TestBenchmarkContract:
    """perfbench/spans.py reads solve_ode's step record and wraps the ``f``
    it is given to count RHS evaluations."""

    def test_step_record_and_rhs_calls(self, caplog):
        kind = ModelKind.TWO_D
        f = counted(vector_field(kind))
        with caplog.at_level(logging.DEBUG, logger="fireball.integrate"):
            solve_ode(f, 0.0, [1.0, 1.3, -0.2, 0.35], sample_grid(0.0, 20.0, 0.5))
        records = [r for r in caplog.records if str(r.msg).startswith("solve_ode:")]
        assert len(records) == 1
        accepted, rejected, refused = records[0].args[0:3]
        assert type(accepted) is int and type(rejected) is int
        assert accepted > 0 and rejected > 0 and refused == 0
        # no stage raises here: one call to start, six per attempted step
        assert f.calls == 1 + 6 * (accepted + rejected)

    def test_step_record_counts_refused_stages(self, caplog):
        # the third argument counts the stages whose DomainError refused
        # their step; those steps are among the rejected ones
        kind = ModelKind.TWO_D
        field, refusals = vector_field(kind), []

        def f(t, y):
            if len(refusals) < 200 and (len(refusals) + f.calls) % 23 == 22:
                refusals.append(t)
                raise DomainError("refused stage")
            f.calls += 1
            return field(t, y)

        f.calls = 0
        with caplog.at_level(logging.DEBUG, logger="fireball.integrate"):
            solve_ode(f, 0.0, [1.0, 1.3, -0.2, 0.35], sample_grid(0.0, 20.0, 0.5))
        records = [r for r in caplog.records if str(r.msg).startswith("solve_ode:")]
        accepted, rejected, refused = records[0].args[0:3]
        assert type(refused) is int
        assert refused == len(refusals) > 0 and rejected >= refused


class TestDeclaredFields:
    """The model and angular fields are declared as source: solve_ode's
    native loop, built on first use, inlines them, and its Python stepper
    calls them and any other callable, wrappers of a declared field
    included."""

    @staticmethod
    def fresh(code):
        """What ``code`` prints, split, in a fresh interpreter (:func:`fresh_env`)."""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=fresh_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_compiles_no_kernel(self):
        # nor loads the native module, what it alone imports, the pool that
        # only simulate --jobs > 1 uses, the modules of the other commands
        # and names, or json, which only verify and --format json use
        modules = ("fireball.native", "hashlib", "subprocess", "concurrent.futures",
                   "fireball.analytic", "fireball.symmetry", "fireball.hydro",
                   "fireball.verification", "json")
        assert self.fresh("import sys, fireball, fireball.cli\n"
                          "from fireball.integrate import _loop_kernel\n"
                          "print(_loop_kernel.cache_info().misses,\n"
                          f"      *(m in sys.modules for m in {modules!r}))"
                          ) == ["0"] + ["False"] * len(modules)

    def test_simulate_loads_no_other_command(self):
        modules = ("fireball.analytic", "fireball.symmetry", "fireball.hydro",
                   "fireball.verification")
        assert self.fresh("import os, sys, fireball.cli\n"
                          "code = fireball.cli.main(['simulate', '--model', '2d', '--X', '1',\n"
                          "                          '--Y', '1.3', '--t-end', '1',\n"
                          "                          '--out', os.devnull])\n"
                          f"print(code, *(m in sys.modules for m in {modules!r}))"
                          ) == ["0"] + ["False"] * len(modules)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    def test_angular_quadrature_reuses_its_kernel(self, kind):
        sol = AngularSolution.from_angle(5.0, 0.7, 1, kind)
        grid = np.linspace(0.0, 1.0, 11)
        angular_quadrature(sol, kind, grid)
        misses = _loop_kernel.cache_info().misses
        angular_quadrature(sol, kind, grid)
        assert _loop_kernel.cache_info().misses == misses

    @pytest.mark.parametrize("kind,calls", [(ModelKind.TWO_D, 15643),
                                            (ModelKind.ELLIPTIC_3D, 15721)])
    def test_angular_quadrature_rhs_count(self, kind, calls, monkeypatch):
        # perfbench's analytic.angular_quadrature.rhs_evals anchor, on the
        # 2501 samples of `fireball analytic --t-end 25`: a step lands on
        # each sample, at six calls per step plus rejected steps and the start
        wrapped = []

        def spy(f, *args, **kwargs):
            wrapped.append(counted(f))
            return solve_ode(wrapped[-1], *args, **kwargs)

        monkeypatch.setattr(sys.modules["fireball.analytic"], "solve_ode", spy)
        state = default_initial_state(kind)
        ttilde = time_reparam(RadialSolution.from_state(state, kind),
                              sample_grid(state.t, 25.0, 0.01))
        angular_quadrature(AngularSolution.from_state(state, kind), kind,
                           ttilde - ttilde[0])
        assert [f.calls for f in wrapped] == [calls]

    @pytest.mark.parametrize("interval,calls", [(0.01, 60001), (0.5, 1711)])
    def test_wrapped_field_is_called_per_stage(self, interval, calls):
        # perfbench's count anchors: a counting wrapper (a closure, as in
        # perfbench/spans.py) sees every stage, and changes no sample
        kind = ModelKind.TWO_D
        state = default_initial_state(kind)
        y0 = state.q.tolist() + state.qdot.tolist()
        grid = sample_grid(state.t, 100.0, interval)
        f = counted(vector_field(kind))
        wrapped = solve_ode(f, state.t, y0, grid)
        assert f.calls == calls
        assert wrapped.tobytes() == solve_ode(vector_field(kind), state.t, y0, grid).tobytes()

    def test_wrapper_copying_the_declaration_is_called(self):
        # functools.wraps copies the declaration's attributes, its compiled
        # function included; the step must still call the wrapper, which is
        # not a declaration, not inline the field it wraps
        field = vector_field(ModelKind.ONE_D)
        calls = []

        @functools.wraps(field)
        def f(t, y):
            calls.append(t)
            return field(t, y)

        assert f.function is field.function and f.__wrapped__ is field
        ys = solve_ode(f, 0.0, [1.0, 0.0], np.array([0.0, 1.0]))
        assert len(calls) > 1
        assert ys.tobytes() == solve_ode(field, 0.0, [1.0, 0.0], np.array([0.0, 1.0])).tobytes()


def failure(f, *args, **kwargs):
    """The raised error's type, message and, if it has them, last state."""
    try:
        solve_ode(f, *args, **kwargs)
    except Exception as exc:  # every error must match, whatever its type
        last_y = getattr(exc, "last_y", None)
        return (type(exc), str(exc), getattr(exc, "last_t", None),
                None if last_y is None else last_y.tolist())
    raise AssertionError("solve_ode returned")


# Declared fields that end their runs in each way a run can fail.  ``wall``
# lands at t=0 just short of its wall with a step of about 1e6, so halving
# never gets back under it; ``root`` takes the square root of a negative
# number, which makes a complex number in Python, and ``blowup`` overflows.
WALL = FieldSource(args=("s",), positive="s < 0.0", refusal='f"s={s!r}"', outputs=("1.0",))
ROOT = FieldSource(args=("x",), positive="x > -1.0", refusal='f"x={x!r}"',
                   outputs=("-(x ** 0.5)",))
BLOWUP = FieldSource(args=("x",), positive="x > 0.0", refusal='f"x={x!r}"',
                     outputs=("x ** 2.0",))
FALL = FieldSource(args=("x", "v"), positive="x > 0.0 and v < 1.0", refusal='f"x={x!r}"',
                   outputs=("v", "-1.0"))
# An oscillator through x = 0 whose second rate adds 1 / (1 + (0.0 * x) ** -inf):
# Python's 0.0 ** -inf and (-0.0) ** -inf are inf, so that term is 0.
ZERO_POWER = FieldSource(args=("x", "v"), positive="-2.0 < x and x < 2.0",
                         refusal='f"x={x!r}"',
                         outputs=("v", "1.0 / (1.0 + (0.0 * x) ** (-1e308 * 10.0)) - x"))


class TestNativeLoop:
    """The C translation of the stepper (fireball.native) against the Python
    stepper, which serves called fields, and against its cache."""

    @pytest.mark.parametrize("field,t0,y0,grid,kw,error,message", [
        (_angular_field(ModelKind.ELLIPTIC_3D), 0.0,
         angular_start(math.atan(1.0 / math.sqrt(2.0)), math.sqrt(2.0 * (1e4 - 4.5))),
         np.linspace(0.0, 2.0, 11), {"rel_tol": 1e-2, "abs_tol": 1e-2}, SingularityError,
         "domain refusals forced the step below the floor"),
        (vector_field(ModelKind.TWO_D), 0.0, [1.0, 1e-10, 0.1, 0.2], sample_grid(0.0, 25.0, 0.01),
         {}, IntegrationError, "step size underflow at t=0.0 (h=7.6"),
        (WALL, -1e6, [-1e6 - 1e-9], np.array([-1e6, 0.0, 1e8]), {}, SingularityError,
         "the field refused 50 consecutive steps near t=0.0"),
        (FALL, 0.0, [1.0, 0.0], np.array([0.0, 3.0]), {}, SingularityError,
         "domain refusals forced the step below the floor"),
        (BLOWUP, 0.0, [1.0], np.array([0.0, 2.0]), {}, IntegrationError,
         "step size underflow"),
        (ROOT, 0.0, [1.0], np.array([0.0, 3.0]), {}, TypeError, "'>' not supported"),
        (ROOT, 0.0, [-0.5], np.array([0.0, 3.0]), {}, TypeError, "'>' not supported"),
        (vector_field(ModelKind.ONE_D), 0.0, [1e308, 1e150], 1e159 * np.arange(11.0), {},
         IntegrationError, "the state overflowed in the step from t=5.79"),
        (vector_field(ModelKind.TWO_D), 0.0, [1.0, 1e-13, 0.1, 0.2], np.array([0.0, 1.0]), {},
         DomainError, "variance at or below the positivity floor 1e-12 in [1.0, 1e-13, "),
    ], ids=["landing-refusals-at-floor", "landing-underflow", "landing-fifty-refusals",
            "landing-fall", "landing-blowup", "landing-complex", "landing-complex-start",
            "landing-overflow", "refused-at-y0"])
    def test_errors_match_the_python_loop(self, field, t0, y0, grid, kw, error, message):
        # the same error, message and last state as the Python stepper gives
        # when it calls the field, in every way a run can fail; in the
        # complex cases a power is complex in Python (at a stage, or at the
        # start), so the Python stepper runs the solve again to raise; in
        # the overflow case X reaches inf in a step that the error norm
        # accepts, since an infinite component divides its error to 0; a
        # state the field refuses at y0 makes the C loop hand the solve
        # back, so the Python stepper raises its DomainError
        got = failure(field, t0, y0, grid, **kw)
        assert_native(field, len(y0))
        assert got == failure(counted(field), t0, y0, grid, **kw)
        assert got[0] is error
        assert got[1].startswith(message)

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_zero_to_minus_infinity_stays_native(self, monkeypatch):
        # the C loop's power gives inf there as Python does, and does not
        # hand the solve back to the Python stepper
        handed_back = []
        monkeypatch.setattr(sys.modules["fireball.integrate"], "_run_python",
                            lambda *args: handed_back.append(args) or _run_python(*args))
        run = _loop_kernel(2, ZERO_POWER)
        assert hasattr(run, "library")
        grid = sample_grid(0.0, 10.0, 0.1)

        def solve(runner):
            return runner(ZERO_POWER.function, 0.0, 0.1, [-0.0, -1.0], grid, grid.tolist(), 1,
                          1e-12, 1e-10, math.inf, 1.0)

        got, want = solve(run), solve(functools.partial(_run_python, 2))
        assert not handed_back
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
        assert got[0][:, 0].min() < 0.0 < got[0][:, 0].max()

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_a_native_solve_never_calls_the_python_field(self):
        # the C loop evaluates the field at y0 too, so the runner never
        # calls f, and its samples are the Python stepper's
        field, calls = vector_field(ModelKind.TWO_D), []

        def spy(t, y):
            calls.append(y)
            return field(t, y)

        run = _loop_kernel(4, field)
        assert hasattr(run, "library")
        grid = sample_grid(0.0, 5.0, 0.01)
        args = (0.0, 0.05, model_start(ModelKind.TWO_D), grid, grid.tolist(), 1, 1e-12, 1e-10,
                math.inf, 1.0)
        got, want = run(spy, *args), _run_python(4, field.function, *args)
        assert not calls
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]

    def test_state_of_another_length_is_refused_before_any_build(self, monkeypatch):
        builds = []
        monkeypatch.setattr(native, "_build", lambda *args: builds.append(args))
        with pytest.raises(ValueError, match="declared over 4 components, the state has 2"):
            solve_ode(vector_field(ModelKind.TWO_D), 0.0, [1.0, 1.0], sample_grid(0.0, 1.0, 0.1))
        assert not builds

    @pytest.mark.parametrize("stepper", ["declared", "called"])
    @pytest.mark.parametrize("name,value", [
        (name, value) for name in ("rel_tol", "abs_tol")
        for value in (0.0, -1.0, 1.0, 2.0, math.inf, math.nan)])
    def test_tolerances_outside_the_unit_interval_are_refused(self, stepper, name, value):
        # as IntegratorConfig refuses them, before either stepper runs: a
        # tolerance in (0, 1) keeps the error norm's divisor at least abs_tol
        field = vector_field(ModelKind.ONE_D)
        f = field if stepper == "declared" else counted(field)
        with pytest.raises(DomainError) as refused:
            solve_ode(f, 0.0, [1.0, 0.0], sample_grid(0.0, 1.0, 0.1), **{name: value})
        assert str(refused.value) == f"{name} must lie in (0, 1), got {value}"
        assert getattr(f, "calls", 0) == 0

    @pytest.mark.parametrize("kind,powers", [(ModelKind.TWO_D, 0), (ModelKind.ELLIPTIC_3D, 1)])
    def test_angular_field_stage_calls_no_trig_and_one_power_at_most(self, kind, powers):
        source = _angular_field(kind)
        helpers, stage = native.field_function(source)
        assert helpers.count("py_power(") == powers
        assert stage.count("py_power(") == powers
        code = c_source(4, source)
        assert not re.search(r"\b(sin|cos|tan)\(", code)

    def test_underflow_exit_and_message(self, capsys):
        # a state that starts 1e-10 above the floor: exit 3, and the
        # message of the Python stepper
        code = main(["simulate", "--model", "2d", "--X", "1", "--Y", "1e-10", "--Xdot", "0.1",
                     "--Ydot", "0.2", "--t-end", "25", "--out", os.devnull])
        assert code == 3
        assert capsys.readouterr().err == ("error: integration failed: step size underflow at "
                                           "t=0.0 (h=7.629394531250004e-15)\n")

    @pytest.mark.parametrize("field,y0,grid", [
        *((vector_field(kind), model_start(kind), sample_grid(0.0, 5.0, 0.01))
          for kind in ModelKind),
        *((_angular_field(kind), angular_start(0.7, -1.1), np.linspace(0.0, 2.0, 201))
          for kind in (ModelKind.TWO_D, ModelKind.ELLIPTIC_3D)),
    ], ids=[*(kind.value for kind in ModelKind), "angular-2d", "angular-elliptic"])
    def test_without_a_compiler_the_python_loop_serves(self, no_cc, caplog, field, y0, grid):
        n = len(y0)
        want = solve_ode(field, 0.0, y0, grid)
        assert_native(field, n)
        with no_cc(), caplog.at_level(logging.INFO, logger="fireball.integrate"):
            got = solve_ode(field, 0.0, y0, grid)
            assert not hasattr(_loop_kernel(n, field), "library")
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            f"n={n} loop of the declared field ({', '.join(field.args)}): Python, "
            "no C compiler (cc) on PATH"]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "1d", "--X", "1.3", "--Xdot", "-0.4", "--t-end", "5"],
        ["simulate", "--model", "2d", "--X", "1", "--Y", "1.3", "--Xdot", "0.2", "--t-end", "5"],
        ["simulate", "--model", "3d", "--X", "1", "--Y", "0.8", "--Z", "1.6", "--Zdot", "0.3",
         "--t-end", "5"],
        ["simulate", "--model", "elliptic", "--X", "1.1", "--Y", "0.7", "--Xdot", "-0.5",
         "--t-end", "5"],
        ["analytic", "--model", "2d", "--X", "1", "--Y", "1.3", "--Xdot", "0.2", "--compare",
         "--t-end", "5"],
        ["analytic", "--model", "elliptic", "--X", "1.1", "--Y", "0.7", "--Xdot", "-0.5",
         "--compare", "--t-end", "5"],
        *(["verify", "--model", kind.value] for kind in ModelKind),
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_the_python_loop_writes_the_native_loop_bytes(self, no_cc, tmp_path, argv):
        # every command, run once on the native paths (wherever cc works)
        # and once on the Python stepper, the numpy report and the Python
        # rows, writes the same file
        paths = [tmp_path / "native.out", tmp_path / "python.out"]
        code = main([*argv, "--out", str(paths[0])])
        kind = ModelKind.from_name(argv[2])
        assert_native(vector_field(kind), 2 * kind.dim)
        with no_cc():
            assert main([*argv, "--out", str(paths[1])]) == code == 0
            assert not hasattr(_loop_kernel(2 * kind.dim, vector_field(kind)), "library")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_cache_is_reused_and_a_damaged_object_rebuilt(self, fresh_cache, monkeypatch):
        builds = []
        run = subprocess.run

        def spy(*args, **kwargs):
            builds.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        source = vector_field(ModelKind.ONE_D)
        args = (source, 0.0, [1.0, 0.0], sample_grid(0.0, 1.0, 0.01))
        want = solve_ode(*args)
        assert len(builds) == 1
        _, how = native._library(c_source(2, source))
        assert how.startswith("from the cache") and len(builds) == 1
        path, = fresh_cache.glob("*.so")
        data = path.read_bytes()
        # a new file, not the loaded one cut short in place
        path.unlink()
        path.write_bytes(data[:len(data) // 2])
        _loop_kernel.cache_clear()
        got = solve_ode(*args)
        assert len(builds) == 2 and path.stat().st_size == len(data)
        assert got.tobytes() == want.tobytes()

    def test_package_declarations_translate(self):
        # with or without a compiler: every declared field of the package
        # lies within the translator's grammar
        for field in PACKAGE_FIELDS:
            assert c_source(len(field.args), field)

    def test_kernel_sources_are_pinned(self):
        # with or without a compiler: the SHA-256 of each package kernel's C
        # source, in PACKAGE_FIELDS order (the models' fields, then the
        # angular ones), of the report's and of the CSV row writer's, so
        # that a change to one is made on purpose
        digests = [hashlib.sha256(c_source(len(f.args), f).encode())
                   .hexdigest() for f in PACKAGE_FIELDS]
        assert digests == [
            "bc0487186b3e3a8d5baf00fa24b8791c9135bb8e517759d370ee24086d0a525c",  # 1d
            "1fc9c6a33dbfa6bb9d89d91cfa3f5511e1a42234b72f38ff88c713478e3b1e69",  # 2d
            "79cca12b4b8c70e3bee71fbb588dbf1f6933cdd4a919422c8f030489f5f3fecc",  # 3d
            "18f787bfd4ed3af52d22f1c30595faf757b0a2d0c1acf62f6d981acafa2f6c9a",  # elliptic
            "2ef93ddda297d90ca5e7e38f6e8f08bc73cb51275db7d80c05ee188e339e9fd6",  # angular 2d
            "87a74e9fbd340911428eecb239d1d5a2372c7502a672a782706d112e346672fa",  # angular elliptic
        ]
        # and the invariant report's, translated from the invariants' declarations
        assert hashlib.sha256(report_source().encode()).hexdigest() == (
            "312fb4f1ec63daae31a5e3631d9b3a0c47cc5820539f2049974dc4927326b608")
        assert hashlib.sha256(CSV_SOURCE.encode()).hexdigest() == (
            "de88a80bfd8801f386d8a507277247bd9a1c0646482a2e055b90dd944e9cf74c")

    def test_native_imports_no_package_module(self):
        # each C form lives beside its Python twin; the translator and the
        # build cache know nothing of them
        with open(native.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [("." * node.level) + (node.module or "") for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert imported and not [m for m in imported
                                 if m.startswith(".") or m.split(".")[0] == "fireball"]

    def test_only_native_knows_the_translator(self):
        # the modules that run a declaration's C get it from native's entry
        # points: none reads the translator or its helpers' text, or writes
        # the translator's u_ names or its _py flag into a string of C
        private, written = {"_Translator", "_PRELUDE", "_POWER"}, re.compile(r"\bu_\w|\b_py\b")
        for path in Path(native.__file__).parent.glob("*.py"):
            if path.name == "native.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
            reads = [node for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in private
                     or isinstance(node, ast.Name) and node.id in private
                     or isinstance(node, ast.alias) and node.name in private
                     or isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and id(node) not in docstrings and written.search(node.value)]
            assert not reads, (path.name, [ast.unparse(node) for node in reads])

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_generated_c_compiles_without_warnings(self, tmp_path):
        # a warning from the emitter fails here rather than hide a
        # mistranslation
        files = []
        for i, field in enumerate(PACKAGE_FIELDS):
            files.append(tmp_path / f"loop{i}.c")
            files[-1].write_text(c_source(len(field.args), field))
        proc = subprocess.run(["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-c",
                               *map(str, files)], cwd=tmp_path, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.o"))) == 6

    @pytest.mark.parametrize("declaration,reason", [
        ({"positive": "abs(x) > 0.0"}, "cannot translate abs(x)"),
        ({"outputs": ("x if x > 1.0 else 2.0",)}, "cannot translate x if x > 1.0 else 2.0"),
        ({"outputs": ("2 * 3",)}, "cannot translate 2"),
        ({"prelude": ("x += 1.0",)}, "cannot translate the statement x += 1.0"),
        ({"positive": "x"}, "cannot translate the condition x"),
        ({"outputs": ("1",)}, "cannot translate 1"),
        ({"outputs": ("sin(x)",)}, "cannot translate sin(x)"),
        ({"positive": "x > 0.0 or x < -1.0"},
         "cannot translate the condition x > 0.0 or x < -1.0"),
        ({"positive": "x <= 1.0"}, "cannot translate the condition x <= 1.0"),
        ({"positive": "-1.0 < x < 1.0"}, "cannot translate the condition -1.0 < x < 1.0"),
        ({"prelude": ("a, b = x, x",)}, "cannot translate the statement a, b = (x, x)"),
        ({"outputs": ("2 * x",)}, "cannot translate 2"),
        ({"prelude": ("_a = x",)}, "the prelude assigns _a"),
    ], ids=["abs", "ifexp", "int-product", "augassign", "bare-name", "int", "call", "or",
            "less-equal", "chained", "tuple-assign", "int-constant", "underscore"])
    def test_translator_refuses_what_it_cannot_take(self, declaration, reason):
        # such a declaration keeps the Python stepper
        source = FieldSource(**{"args": ("x",), "positive": "x > 0.0", "refusal": '"refused"',
                                "outputs": ("-x",), **declaration})
        with pytest.raises(native.Unavailable, match=re.escape(reason)):
            c_source(1, source)

    def test_a_declaration_outside_the_grammar_runs_on_the_python_stepper(self):
        # OSCILLATOR's check as a chained comparison: the Python stepper
        # serves it, with its called twin's bytes and those of OSCILLATOR's
        # native loop
        chained = FieldSource(args=("x", "v"), positive="-2.0 < x < 2.0", refusal='f"x={x!r}"',
                              outputs=("v", "-x"))
        grid = sample_grid(0.0, 10.0, 0.1)
        got = assert_native_matches_python(OSCILLATOR, 0.0, [-0.0, -1.0], grid,
                                           python=chained)
        assert not hasattr(_loop_kernel(2, chained), "library")
        assert got.tobytes() == solve_ode(counted(chained), 0.0, [-0.0, -1.0],
                                          grid).tobytes()


# Reads the component and sample counts and next_idx (three int64), the
# six scalars, the state and the sample times (float64) on stdin, runs
# fireball_loop on buffers of exactly the runner's sizes (the rows before
# next_idx filled with the state, as the runner does) and writes the
# status, the three counts (int64), t, h, the state and the rows (float64).
LOOP_RUNNER = r"""#include <stdio.h>
#include <stdlib.h>

int fireball_loop(const double *, long long, double *, double *, double *, long long *);

int main(void)
{
    long long head[3], result[4], n, count, i;
    double scalars[6], *state, *times, *out;

    if (fread(head, sizeof head, 1, stdin) != 1 || fread(scalars, sizeof scalars, 1, stdin) != 1)
        return 2;
    n = head[0];
    count = head[1];
    result[1] = head[2];
    state = malloc(sizeof *state * n);
    times = malloc(sizeof *times * count);
    out = malloc(sizeof *out * n * count);
    if (fread(state, sizeof *state, n, stdin) != (size_t)n
            || fread(times, sizeof *times, count, stdin) != (size_t)count)
        return 2;
    for (i = 0; i < n * count; i++)
        out[i] = state[i % n];
    result[0] = fireball_loop(times, count, out, state, scalars, result + 1);
    fwrite(result, sizeof *result, 4, stdout);
    fwrite(scalars, sizeof *scalars, 2, stdout);
    fwrite(state, sizeof *state, n, stdout);
    fwrite(out, sizeof *out, n * count, stdout);
    free(state);
    free(times);
    free(out);
    return 0;
}
"""


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
class TestSanitizedLoop:
    """The fixed C loop, linked with the header of the 1d and 3d fields and
    of a refusing test field, under the address and undefined-behaviour
    sanitizers: in each way a run ends it gives the Python stepper's status,
    samples, counts or error, without a sanitizer's report."""

    @pytest.fixture(scope="class")
    def runners(self, tmp_path_factory):
        sources = {"1d": vector_field(ModelKind.ONE_D),
                   "3d": vector_field(ModelKind.THREE_D), "wall": WALL}
        return {name: sanitizers.build(tmp_path_factory.mktemp(name), LOOP_RUNNER,
                                       c_source(len(source.args), source))
                for name, source in sources.items()}, sources

    @pytest.mark.parametrize("name,t,h,y,times,next_idx,unit,status", [
        ("3d", 0.0, 0.01, model_start(ModelKind.THREE_D), [0.0, 0.0, 0.0, 0.25, 0.5, 1.0], 3,
         1.0, 0),
        ("1d", 1.0 - 4e-15, 0.01, [1.0, -0.2], [1.0 - 4e-15, 1.0, 1.0], 1, 1.0, 0),
        ("wall", -1e6, 0.1, [-1e6 - 1e-9], [-1e6, 0.0, 1e8], 1, 1.0, 3),
        ("1d", 0.0, 0.1, [1e308, 1e150], (1e159 * np.arange(11.0)).tolist(), 1, 1.0, 5),
    ], ids=["samples-at-the-start", "trailing-samples", "fifty-refusals", "overflow"])
    def test_the_loop_runs_clean(self, runners, name, t, h, y, times, next_idx, unit, status):
        runners, sources = runners
        n, count, grid = len(y), len(times), np.array(times)
        data = (np.array([n, count, next_idx], dtype=np.int64).tobytes()
                + np.array([t, h, 1e-12, 1e-10, math.inf, unit, *y, *times]).tobytes())
        output = sanitizers.run(runners[name], data)
        result = np.frombuffer(output[:32], dtype=np.int64).tolist()
        values = np.frombuffer(output[32:])
        assert result[0] == status
        args = (t, h, y, grid, times, next_idx, 1e-12, 1e-10, math.inf, unit)
        if status:
            with pytest.raises(IntegrationError) as raised:
                _run_python(n, sources[name].function, *args)
            got = _failure(status, *values[:2].tolist(), values[2:2 + n])
            assert str(got) == str(raised.value)
            assert got.last_y.tobytes() == raised.value.last_y.tobytes()
        else:
            samples, *counts = _run_python(n, sources[name].function, *args)
            assert result[1:] == counts
            assert values[2 + n:].tobytes() == samples.tobytes()


# A declared field whose first rate is NaN once s = t passes DBL_MAX / 1e308,
# where s * 1e308 overflows; its check reads only s, so the NaN reaches the
# error norm.
NAN_AFTER = FieldSource(args=("x", "s"), positive="s < 1e300", refusal='f"s={s!r}"',
                        prelude=("w = s * 1e308",), outputs=("w - w - x", "1.0"))


STEPPERS = ["native", "python"]


class TestIntegrateOutput:
    """integrate builds its Trajectory without the constructor's checks,
    which cannot fire on its output, on either loop: a variance at or below
    the floor at y0 raises DomainError before the first step; a NaN rate
    makes the error norm NaN and rejects its step; an overflowed state ends
    the run (TestNativeLoop's ``landing-overflow`` case); and the output
    passes the constructor with every bit."""

    @staticmethod
    @contextlib.contextmanager
    def served_by(stepper):
        """The models' fields run on ``stepper`` inside: the native loop
        (where cc works) or the Python stepper."""
        served = []
        with pytest.MonkeyPatch.context() as patch:
            if stepper == "python":
                patch.setattr(sys.modules["fireball.integrate"], "_loop_kernel",
                              lambda n, source=None: served.append(n)
                              or functools.partial(_run_python, n))
            yield
        assert served or stepper == "native"

    @pytest.mark.parametrize("variance", [1e-12, 5e-13, 1e-300])
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("stepper", STEPPERS)
    def test_a_start_at_the_floor_raises_before_the_first_step(self, stepper, kind, variance):
        # DomainError, not SingularityError: the field refused y0 itself,
        # outside the step loop, and its message names y0
        q, qdot = [1.3, 0.9, variance][-kind.dim:], [0.1, -0.2, 0.3][:kind.dim]
        with self.served_by(stepper), pytest.raises(DomainError) as refused:
            integrate(State(t=0.0, q=q, qdot=qdot), kind,
                      IntegratorConfig(t_end=1.0, sample_interval=0.1))
        assert type(refused.value) is DomainError
        assert str(refused.value) == ("variance at or below the positivity floor 1e-12 in "
                                      f"{q + qdot}")

    def test_rates_turning_nan_end_the_run_without_a_nan_sample(self):
        # every step that reaches the NaN rates is rejected, until the step
        # falls below the floor: IntegrationError from a finite state, on
        # the native loop as on the Python stepper
        grid = np.linspace(0.0, 3.0, 7)
        got = failure(NAN_AFTER, 0.0, [1.0, 0.0], grid)
        assert_native(NAN_AFTER, 2)
        assert got == failure(counted(NAN_AFTER), 0.0, [1.0, 0.0], grid)
        error, message, last_t, last_y = got
        assert error is IntegrationError and message.startswith("step size underflow")
        assert 1.79 < last_t < sys.float_info.max / 1e308
        assert all(map(math.isfinite, last_y))

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("stepper", STEPPERS)
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_the_constructor_accepts_the_output_bit_for_bit(self, stepper, kind, data):
        d = kind.dim
        start = State(t=data.draw(st.floats(-10.0, 10.0)),
                      q=[data.draw(st.floats(0.05, 20.0)) for _ in range(d)],
                      qdot=[data.draw(st.floats(-3.0, 3.0)) for _ in range(d)])
        config = IntegratorConfig(t_end=start.t + data.draw(st.floats(0.5, 20.0)),
                                  sample_interval=data.draw(st.floats(0.1, 2.0)))
        with self.served_by(stepper):
            traj = integrate(start, kind, config)
        checked = Trajectory(kind=kind, times=traj.times, qs=traj.qs, qdots=traj.qdots)
        for name in ("times", "qs", "qdots"):
            got, want = getattr(checked, name), getattr(traj, name)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert traj.qs.shape == (traj.times.size, d)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("stepper", STEPPERS)
    def test_integrate_skips_the_public_check(self, stepper, kind, monkeypatch):
        from fireball.symmetry import scaled_trajectory

        def refuse(self):
            raise AssertionError("Trajectory.__post_init__ ran")

        start = State(t=0.0, q=model_start(kind)[:kind.dim], qdot=model_start(kind)[kind.dim:])
        config = IntegratorConfig(t_end=5.0, sample_interval=0.5)
        with self.served_by(stepper):
            want = integrate(start, kind, config)
            monkeypatch.setattr(Trajectory, "__post_init__", refuse)
            got = integrate(start, kind, config)
        if stepper == "native":
            assert_native(vector_field(kind), 2 * kind.dim)
        assert type(got) is Trajectory and got.kind is kind
        assert [a.tobytes() for a in (got.times, got.qs, got.qdots)] == \
            [a.tobytes() for a in (want.times, want.qs, want.qdots)]
        with pytest.raises(AssertionError, match="__post_init__ ran"):
            Trajectory(kind=kind, times=got.times, qs=got.qs, qdots=got.qdots)
        with pytest.raises(AssertionError, match="__post_init__ ran"):
            scaled_trajectory(got, 0.5)
