import functools
import logging
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import fireball
from fireball import (AngularSolution, DomainError, IntegrationError, IntegratorConfig,
                      ModelKind, RadialSolution, SingularityError, State, Trajectory,
                      angular_quadrature, energies, integrate, one_d_solution,
                      time_reparam)
from fireball import native
from fireball.analytic import _angular_field, angular_potential
from fireball.cli import main
from fireball.dynamics import FieldSource, vector_field
from fireball.integrate import _loop_kernel, sample_grid, solve_ode
from fireball.invariants import hamiltonian_values
from fireball.verification import default_initial_state


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

    def test_t_end_must_follow_start(self):
        s = State(t=2.0, q=[1.0], qdot=[0.0])
        with pytest.raises(DomainError):
            integrate(s, ModelKind.ONE_D, IntegratorConfig(t_end=1.0))


class TestSampleGrid:
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


# The stepper as written by hand, with its own copy of the Dormand & Prince
# (1980) tableau: one list comprehension over zip per stage and a loop for
# the error norm.  solve_ode's generated loop must match it bit for bit.
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def reference_solve_ode(f, t0, y0, sample_times, *, rel_tol=1e-10, abs_tol=1e-12,
                        max_step=math.inf):
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _REF_A
    _, c2, c3, c4, c5, _, _ = _REF_C
    e1, _, e3, e4, e5, e6, e7 = _REF_E

    y = [float(v) for v in y0]
    n = len(y)
    t = float(t0)
    times = np.asarray(sample_times, dtype=float).tolist()
    t_end = times[-1]
    span = t_end - t
    out = []
    n_samples = len(times)
    next_idx = 0
    while next_idx < n_samples and times[next_idx] <= t + 1e-14 * max(1.0, abs(t)):
        out.extend(y)
        next_idx += 1
    if span == 0.0:
        return np.array(out).reshape(-1, n)

    h = min(max_step, span / 100.0, 0.1)
    h = min(h, span)
    k1 = f(t, y)
    refusals = 0
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    while t < t_stop:
        h = min(h, max_step, t_end - t)
        if next_idx < n_samples:
            h = min(h, times[next_idx] - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if refusals > 0:
                raise SingularityError("floor", last_t=t, last_y=np.array(y))
            raise IntegrationError("underflow", last_t=t, last_y=np.array(y))
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
            refusals += 1
            if refusals > 50:
                raise SingularityError("refused", last_t=t, last_y=np.array(y)) from None
            h *= 0.5
            continue
        refusals = 0

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
                # every sample is a step's end: none falls inside a step
                assert abs(times[next_idx] - t_new) <= tol, "sample inside a step"
                out.extend(y_new)
                next_idx += 1
            t, y, k1 = t_new, y_new, k7
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = min(1.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor

    while next_idx < n_samples:
        out.extend(y)
        next_idx += 1
    return np.array(out).reshape(-1, n)


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


def assert_matches_reference(make_field, *args, **kwargs):
    """solve_ode and the reference give the same samples (or the same error
    at the same state) bit for bit, with the same number of RHS calls.  The
    counting wrapper is not a declared field, so the step calls it."""
    f, g = counted(make_field()), counted(make_field())
    got = outcome(solve_ode, f, *args, **kwargs)
    assert_same(got, outcome(reference_solve_ode, g, *args, **kwargs))
    assert f.calls == g.calls
    return got


# Where a C compiler is on PATH, the native loop must serve every declared
# field of the package.
HAVE_CC = shutil.which("cc") is not None


def assert_native(field, n):
    """The native loop serves the declared field whenever cc is on PATH."""
    if HAVE_CC:
        assert hasattr(_loop_kernel(n, field.source), "library")


def assert_fused_matches_reference(field, t0, y0, *args, **kwargs):
    """As :func:`assert_matches_reference` for a declared field passed
    itself, which solve_ode's loop inlines rather than calls (natively
    whenever cc is on PATH)."""
    assert field.source.function is field
    got = outcome(solve_ode, field, t0, y0, *args, **kwargs)
    assert_native(field, len(y0))
    assert_same(got, outcome(reference_solve_ode, field, t0, y0, *args, **kwargs))
    return got


# A failing example of these bit-exactness tests integrates long grids, and
# shrinking it took minutes; the first failure says enough.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


class TestReferenceStepper:
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
            assert_matches_reference(lambda: vector_field(kind), t0, q + qdot, grid)
            assert_fused_matches_reference(vector_field(kind), t0, q + qdot, grid)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(excess=st.floats(0.0, 40.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_fused_angular_fields(self, kind, excess, sign):
        # invariant = U(pi/4) + excess
        v0 = sign * math.sqrt(2.0 * excess)
        assert_fused_matches_reference(_angular_field(kind), 0.0, [math.pi / 4.0, v0],
                                       sample_grid(0.0, 3.0, 0.01),
                                       rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(invariant=st.floats(2.5, 40.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_guarded_angular_field(self, invariant, sign):
        # angular_quadrature's field, made to refuse every 19th call too, so
        # that about a third of the steps are refused at one stage or another
        refusals = []

        def make_field():
            field = _angular_field(ModelKind.TWO_D)
            calls = [0]

            def f(t, y):
                calls[0] += 1
                if calls[0] % 19 == 0:
                    refusals.append(y)
                    raise DomainError("refused stage")
                return field(t, y)
            return f

        v0 = sign * math.sqrt(2.0 * (invariant - 2.0))
        grid = sample_grid(0.0, 3.0, 0.01)
        assert_matches_reference(make_field, 0.0, [math.pi / 4.0, v0], grid,
                                 rel_tol=1e-12, abs_tol=1e-12)
        assert refusals

    def test_angular_field_refuses_out_of_range_stages(self):
        # at this invariant some elliptic stages step phi out of (0, pi/2)
        kind = ModelKind.ELLIPTIC_3D
        phi0, invariant = math.atan(1.0 / math.sqrt(2.0)), 1e4
        v0 = math.sqrt(2.0 * (invariant - float(angular_potential(phi0, kind))))
        refusals = []

        def make_field():
            field = _angular_field(kind)

            def f(t, y):
                try:
                    return field(t, y)
                except DomainError:
                    refusals.append(y)
                    raise
            return f

        got = assert_matches_reference(make_field, 0.0, [phi0, v0], np.linspace(0.0, 2.0, 11),
                                       rel_tol=1e-8, abs_tol=1e-8)
        assert isinstance(got, np.ndarray) and refusals
        assert all(not 0.0 < y[0] < math.pi / 2.0 for y in refusals)
        # the inlined field refuses the same stages
        got = assert_fused_matches_reference(_angular_field(kind), 0.0, [phi0, v0],
                                             np.linspace(0.0, 2.0, 11),
                                             rel_tol=1e-8, abs_tol=1e-8)
        assert isinstance(got, np.ndarray)
        # at a loose tolerance a step is accepted where every next step
        # refuses: the same error at the same state
        got = assert_fused_matches_reference(_angular_field(kind), 0.0, [phi0, v0],
                                             np.linspace(0.0, 2.0, 11),
                                             rel_tol=1e-2, abs_tol=1e-2)
        assert got[0] is SingularityError

    def test_guard_singularity_is_the_same(self):
        # a field that refuses y[0] <= 0 while y[0] falls towards 0
        def make_field():
            def f(_t, y):
                if not y[0] > 0.0:
                    raise DomainError("refused stage")
                return y[1], -1.0
            return f

        got = assert_matches_reference(make_field, 0.0, [1.0, 0.0], np.array([0.0, 3.0]))
        assert got[0] is SingularityError

    def test_domain_error_mid_step(self):
        # every 11th call refuses its stage, so the refusal falls on each of
        # stages 2-7 in turn
        def make_field():
            calls = [0]

            def f(_t, y):
                calls[0] += 1
                if calls[0] % 11 == 0:
                    raise DomainError("refused stage")
                return y[2], y[3], -y[0], -2.0 * y[1]
            return f

        assert_matches_reference(make_field, 0.0, [1.0, 0.5, 0.0, 0.3],
                                 sample_grid(0.0, 5.0, 0.05))

    def test_negative_zero_crossing_zero(self):
        # the first component starts at -0.0 and then changes sign, so both
        # branches of the error norm's |x| run, at -0.0 too
        crossings = []

        def make_field():
            def f(_t, y):
                crossings.append(y[0] > 0.0)
                return y[1], -y[0]
            return f

        got = assert_matches_reference(make_field, 0.0, [-0.0, -1.0], sample_grid(0.0, 10.0, 0.1))
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
            got = assert_matches_reference(make_field, 0.0, [1.0, 0.0], grid)
            solve_ode(make_field(nan_call=0), 0.0, [1.0, 0.0], grid)
        assert np.isfinite(got).all()
        nan_rejected, clean_rejected = [r.args[1] for r in caplog.records
                                        if str(r.msg).startswith("solve_ode:")]
        assert nan_rejected > clean_rejected

    @pytest.mark.parametrize("make_field,y0", [
        (lambda: lambda t, y: [-0.5 * y[0] + math.sin(t)], [1.3]),
        (lambda: lambda t, y: np.array([y[1], -y[0] * y[2], y[0] * y[1] - 0.1 * y[2]]),
         [0.2, 1.0, -0.4]),
        (lambda: lambda t, y: (10.0 * (y[1] - y[0]), y[0] * (28.0 - y[2]) - y[1],
                               y[0] * y[1] - 8.0 / 3.0 * y[2]), [1.0, 1.0, 1.0]),
    ], ids=["n1", "n3-array", "n3-lorenz"])
    def test_custom_sizes(self, make_field, y0):
        for grid, kw in ((sample_grid(0.0, 2.0, 1e-3), {}),
                         (np.array([0.0, 0.7, 2.0]), {"rel_tol": 1e-8}),
                         (np.array([0.0, 2.0]), {"max_step": 0.3})):
            assert_matches_reference(make_field, 0.0, y0, grid, **kw)

    @pytest.mark.parametrize("reply", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
    def test_field_of_wrong_length_raises(self, reply):
        def f(t, y):
            return reply

        with pytest.raises(ValueError):
            solve_ode(f, 0.0, [1.0, 0.0], np.array([0.0, 1.0]))


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
    """The model and angular fields are declared as source: solve_ode
    inlines them into a loop compiled on first use, and calls any other
    callable, wrappers of a declared field included."""

    def test_import_compiles_no_kernel(self):
        # nor loads the native module, what it alone imports, or the pool
        # that only simulate --jobs > 1 uses
        code = ("import sys, fireball, fireball.cli\n"
                "from fireball.integrate import _loop_kernel\n"
                "print(_loop_kernel.cache_info().misses, *(m in sys.modules for m in\n"
                "      ('fireball.native', 'hashlib', 'subprocess', 'concurrent.futures')))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin",
                 "PYTHONPATH": os.path.dirname(os.path.dirname(fireball.__file__))})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False", "False", "False"]

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    def test_angular_quadrature_reuses_its_kernel(self, kind):
        sol = AngularSolution(invariant=5.0, phi0=0.7)
        grid = np.linspace(0.0, 1.0, 11)
        angular_quadrature(sol, kind, grid)
        misses = _loop_kernel.cache_info().misses
        angular_quadrature(sol, kind, grid)
        assert _loop_kernel.cache_info().misses == misses

    @pytest.mark.parametrize("kind,calls", [(ModelKind.TWO_D, 15673),
                                            (ModelKind.ELLIPTIC_3D, 15745)])
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
        # functools.wraps copies the field's ``source`` attribute; the step
        # must still call the wrapper, not inline the field it wraps
        field = vector_field(ModelKind.ONE_D)
        calls = []

        @functools.wraps(field)
        def f(t, y):
            calls.append(t)
            return field(t, y)

        assert f.source is field.source
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


class TestNativeLoop:
    """The C translation of the loop (fireball.native) against the Python
    loop, which serves called fields, and against its cache."""

    @pytest.mark.parametrize("field,t0,y0,grid,kw,error,message", [
        (_angular_field(ModelKind.ELLIPTIC_3D), 0.0, [math.atan(1.0 / math.sqrt(2.0)), 141.4],
         np.linspace(0.0, 2.0, 11), {"rel_tol": 1e-2, "abs_tol": 1e-2}, SingularityError,
         "domain refusals forced the step below the floor"),
        (vector_field(ModelKind.TWO_D), 0.0, [1.0, 1e-10, 0.1, 0.2], sample_grid(0.0, 25.0, 0.01),
         {}, IntegrationError, "step size underflow at t=0.0 (h=7.6"),
        (WALL.function, -1e6, [-1e6 - 1e-9], np.array([-1e6, 0.0, 1e8]), {}, SingularityError,
         "the field refused 50 consecutive steps near t=0.0"),
        (FALL.function, 0.0, [1.0, 0.0], np.array([0.0, 3.0]), {}, SingularityError,
         "domain refusals forced the step below the floor"),
        (BLOWUP.function, 0.0, [1.0], np.array([0.0, 2.0]), {}, IntegrationError,
         "step size underflow"),
        (ROOT.function, 0.0, [1.0], np.array([0.0, 3.0]), {}, TypeError, "'>' not supported"),
        (ROOT.function, 0.0, [-0.5], np.array([0.0, 3.0]), {}, TypeError, "'>' not supported"),
    ], ids=["landing-refusals-at-floor", "landing-underflow", "landing-fifty-refusals",
            "landing-fall", "landing-blowup", "landing-complex", "landing-complex-start"])
    def test_errors_match_the_python_loop(self, field, t0, y0, grid, kw, error, message):
        # the same error, message and last state as the Python loop gives
        # when it calls the field, in every way a run can fail; in the last
        # two cases a power is complex in Python (at a stage, or at the
        # start), so the Python loop runs the solve again to raise
        got = failure(field, t0, y0, grid, **kw)
        assert_native(field, len(y0))
        assert got == failure(counted(field), t0, y0, grid, **kw)
        assert got[0] is error
        assert got[1].startswith(message)

    def test_underflow_exit_and_message(self, capsys):
        # a state that starts 1e-10 above the floor: exit 3, and the
        # message of the Python loop
        code = main(["simulate", "--model", "2d", "--X", "1", "--Y", "1e-10", "--Xdot", "0.1",
                     "--Ydot", "0.2", "--t-end", "25", "--out", os.devnull])
        assert code == 3
        assert capsys.readouterr().err == ("error: integration failed: step size underflow at "
                                           "t=0.0 (h=7.629394531250004e-15)\n")

    @pytest.fixture
    def fresh_kernels(self, monkeypatch, tmp_path):
        """An empty cache and no kernel chosen yet, then the cache as before."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _loop_kernel.cache_clear()
        yield tmp_path / "fireball"
        _loop_kernel.cache_clear()

    def test_without_a_compiler_the_python_loop_serves(self, fresh_kernels, monkeypatch,
                                                       caplog):
        field = vector_field(ModelKind.TWO_D)
        args = (0.0, model_start(ModelKind.TWO_D), sample_grid(0.0, 5.0, 0.01))
        want = solve_ode(field, *args)
        assert_native(field, 4)
        _loop_kernel.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_kernels / "empty"))
        monkeypatch.setattr(native, "_compiler", lambda: None)
        with caplog.at_level(logging.INFO, logger="fireball.integrate"):
            got = solve_ode(field, *args)
        assert not hasattr(_loop_kernel(4, field.source), "library")
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "n=4 loop of the declared field (X, Y, Xd, Yd): Python, no C compiler (cc) on PATH"]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_cache_is_reused_and_a_damaged_object_rebuilt(self, fresh_kernels, monkeypatch):
        builds = []
        run = subprocess.run

        def spy(*args, **kwargs):
            builds.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        source = vector_field(ModelKind.ONE_D).source
        args = (source.function, 0.0, [1.0, 0.0], sample_grid(0.0, 1.0, 0.01))
        want = solve_ode(*args)
        assert len(builds) == 1
        _, how = native.kernel(2, source, None)
        assert how.startswith("from the cache") and len(builds) == 1
        path, = fresh_kernels.glob("*.so")
        data = path.read_bytes()
        # a new file, not the loaded one cut short in place
        path.unlink()
        path.write_bytes(data[:len(data) // 2])
        _loop_kernel.cache_clear()
        got = solve_ode(*args)
        assert len(builds) == 2 and path.stat().st_size == len(data)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_generated_c_compiles_without_warnings(self, tmp_path):
        # every declared field of the package: a warning from the emitter
        # fails here rather than hide a mistranslation
        fields = [vector_field(kind) for kind in ModelKind] + [
            _angular_field(kind) for kind in (ModelKind.TWO_D, ModelKind.ELLIPTIC_3D)]
        files = []
        for i, field in enumerate(fields):
            files.append(tmp_path / f"loop{i}.c")
            files[-1].write_text(native.c_source(len(field.source.args), field.source))
        proc = subprocess.run(["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-c",
                               *map(str, files)], cwd=tmp_path, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.o"))) == 6

    @pytest.mark.parametrize("declaration,reason", [
        ({"positive": "abs(x) > 0.0"}, "cannot translate abs(x)"),
        ({"outputs": ("x if x > 1.0 else 2.0",)}, "cannot translate x if x > 1.0 else 2.0"),
        ({"outputs": ("2 * 3",)}, "integer arithmetic in 2 * 3"),
        ({"prelude": ("x += 1.0",)}, "cannot translate the statement x += 1.0"),
        ({"positive": "x"}, "cannot translate the condition x"),
        ({"outputs": ("1",)}, "the output 1 is an integer"),
    ], ids=["abs", "ifexp", "int-product", "augassign", "bare-name", "int"])
    def test_translator_refuses_what_it_cannot_take(self, declaration, reason):
        # such a declaration keeps the Python loop
        source = FieldSource(**{"args": ("x",), "positive": "x > 0.0", "refusal": '"refused"',
                                "outputs": ("-x",), **declaration})
        with pytest.raises(native.Unavailable, match=re.escape(reason)):
            native.c_source(1, source)
