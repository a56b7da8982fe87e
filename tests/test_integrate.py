import math

import numpy as np
import pytest

from fireball import (DomainError, IntegrationError, IntegratorConfig,
                      ModelKind, SingularityError, State, Trajectory,
                      energies, integrate, one_d_solution)
from fireball.integrate import _hermite, sample_grid, solve_ode
from fireball.invariants import hamiltonian_values


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
        s = State(t=0.0, q=[1.0], qdot=[0.0])
        errors = []
        for h in (0.1, 0.05, 0.025):
            cfg = IntegratorConfig(t_end=2.0, sample_interval=2.0,
                                   rel_tol=0.9, abs_tol=0.9,
                                   max_step=h, initial_step=h)
            traj = integrate(s, ModelKind.ONE_D, cfg)
            X_exact, _ = one_d_solution(0.5, 0.0, 2.0)
            errors.append(abs(traj.qs[-1, 0] - float(X_exact)))
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


class TestGuards:
    def test_singularity_error_carries_last_state(self):
        # contrived ODE heading straight into the guard
        def f(t, y):
            return np.array([-1.0])

        with pytest.raises(SingularityError) as err:
            solve_ode(f, 0.0, np.array([1.0]), np.array([0.0, 2.0]),
                      guard=lambda y: y[0] > 1e-12)
        assert err.value.last_t is not None
        assert err.value.last_y[0] > 0.0

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


class TestHermiteFallback:
    def test_cubic_is_reproduced_exactly(self):
        # interpolant must be exact for cubics (4th-order accurate)
        poly = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.0])
        dpoly = poly.deriv()
        t0, t1 = 0.5, 1.7
        for t in np.linspace(t0, t1, 7):
            got = _hermite(t, t0, np.array([poly(t0)]), np.array([dpoly(t0)]),
                           t1, np.array([poly(t1)]), np.array([dpoly(t1)]))
            assert got[0] == pytest.approx(poly(t), rel=1e-13)
