import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fireball import (AngularSolution, DomainError, IntegratorConfig,
                      ModelKind, NoMotionError, RadialSolution, State,
                      UnsupportedModelError, angular_quadrature, energies,
                      integrate, noether_invariant, one_d_solution,
                      radial, radial_3d, time_reparam)
from fireball.analytic import _angular_field, angular_minimum, angular_potential
from fireball.dynamics import potential
from fireball.integrate import solve_ode
from fireball.models import radius
from fireball.verification import default_initial_state
from batch import sample_state
from reference import (angular_start, ermakov_invariant, general_ermakov_invariant,
                       pinney_coupling, superposition_1d)

# A failing example integrates a long grid; the first failure says enough.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


def closed_form_period(kind, invariant):
    """T(C) = 2 int dphi / sqrt(2 (C - U(phi))) between the turning points
    U(phi) = C, by QUADPACK's rule for the weight ((phi - lo) (hi - phi))^-1/2.
    With U = K g^p, g = cos^M_X sin^M_Y, and U(ref) = C at the nearer turning
    point ref, C - U = -C expm1(p log(g / g(ref))), and log(g / g(ref)) is
    summed from differences of sines and cosines taken as products, so that
    nothing cancels near either end; at an end the limit stands in."""
    Mx, My = kind.weights.tolist()
    p = -2.0 / kind.spatial_dim
    phi_star, _ = angular_minimum(kind)
    lo, hi = (brentq(lambda phi: float(angular_potential(phi, kind)) - invariant, a, b,
                     xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
              for a, b in ((1e-15, phi_star), (phi_star, math.pi / 2.0 - 1e-15)))

    def f(phi):
        ref = lo if phi < phi_star else hi
        if phi == ref:
            slope = My / math.tan(ref) - Mx * math.tan(ref)  # d log(g) / dphi
            return math.sqrt((hi - lo) / (2.0 * invariant * abs(p * slope)))
        s, c = math.sin(0.5 * (phi + ref)), math.cos(0.5 * (phi + ref))
        d = math.sin(0.5 * (phi - ref))
        log_ratio = (Mx * math.log1p(-2.0 * s * d / math.cos(ref))
                     + My * math.log1p(2.0 * c * d / math.sin(ref)))
        return math.sqrt((phi - lo) * (hi - phi)
                         / (-2.0 * invariant * math.expm1(p * log_ratio)))

    half, _ = quad(f, lo, hi, weight="alg", wvar=(-0.5, -0.5), epsabs=0.0, epsrel=1e-13,
                   limit=200)
    return 2.0 * half


class TestRadial:
    def test_values(self):
        sol = RadialSolution(energy=1.0, invariant=2.0, t0=0.0)
        r0, rd0 = radial(sol, 0.0)
        assert float(r0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert float(rd0) == 0.0
        r1, _ = radial(sol, 1.0)
        assert float(r1) == pytest.approx(2.0, rel=1e-15)

    def test_ballistic_slope(self):
        sol = RadialSolution(energy=1.0, invariant=2.0, t0=0.0)
        r, _ = radial(sol, 1e3)
        assert abs(float(r) / 1e3 - math.sqrt(2.0)) / math.sqrt(2.0) <= 1e-3

    def test_r_squared_second_derivative_is_4h(self):
        sol = RadialSolution(energy=1.3, invariant=2.8, t0=0.4)
        h = 1e-3
        for t in (0.0, 1.0, 7.5):
            r = [float(radial(sol, t + k * h)[0]) ** 2 for k in (-1, 0, 1)]
            second = (r[0] - 2 * r[1] + r[2]) / h ** 2
            assert second == pytest.approx(4.0 * sol.energy, abs=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            RadialSolution(energy=-1.0, invariant=2.0)
        with pytest.raises(DomainError):
            RadialSolution(energy=1.0, invariant=0.0)
        for H, C in ((math.nan, 2.0), (1.0, math.inf), (1e-300, 1e300), (1e25, 1e-300),
                     (1e308, 2.0)):
            # not finite, C/H over- or underflows, or 2H overflows
            with pytest.raises(DomainError):
                RadialSolution(energy=H, invariant=C)

    def test_refuses_a_time_where_r_overflows(self):
        # 2 H (t - t0)^2 overflows past |t - t0| of about 1e154 / sqrt(H)
        sol = RadialSolution(energy=1.0, invariant=2.0)
        assert np.isfinite(radial(sol, [0.0, 1e153])[0]).all()
        with pytest.raises(DomainError, match="t=1e\\+200"):
            radial(sol, [0.0, 1e200, 1e300])

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_t0(self, t0):
        with pytest.raises(DomainError):
            RadialSolution(1.0, 2.0, t0=t0)

    def test_from_state_matches_the_state(self):
        s = State(t=0.7, q=[1.1, 0.9], qdot=[0.4, -0.2])
        sol = RadialSolution.from_state(s, ModelKind.TWO_D)
        r, rdot = radial(sol, s.t)
        assert float(r) == pytest.approx(float(np.linalg.norm(s.q)), rel=1e-12)
        assert float(rdot) == pytest.approx(
            float(s.q @ s.qdot) / float(np.linalg.norm(s.q)), rel=1e-10, abs=1e-12)

    def test_from_state_reproduces_the_1d_and_3d_laws(self):
        times = np.linspace(0.0, 12.0, 49)
        s = State(t=0.0, q=[0.9], qdot=[0.6])
        sol = RadialSolution.from_state(s, ModelKind.ONE_D)
        assert sol.invariant == pytest.approx(0.5, rel=1e-15)
        X, Xd = one_d_solution(sol.energy, -0.9 * 0.6 / (2.0 * sol.energy), times)
        r, rdot = radial(sol, times)
        assert np.allclose(r, X, rtol=1e-15, atol=0.0)
        assert np.allclose(rdot, Xd, rtol=1e-14, atol=1e-15)

        kind = ModelKind.THREE_D
        s = State(t=0.0, q=[1.0, 1.3, 0.9], qdot=[-0.2, 0.35, 0.15])
        H = energies(s, kind).hamiltonian
        r3, rdot3 = radial_3d(H, noether_invariant(s, kind), float(np.linalg.norm(s.q)),
                              times)
        r, rdot = radial(RadialSolution.from_state(s, kind), times)
        assert np.allclose(r, r3, rtol=1e-14, atol=0.0)
        assert np.allclose(rdot, rdot3, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    def test_from_state_invariant_is_the_ermakov_one(self, kind):
        # C = r^2 H - (r rdot)^2 / 2 is I for 2d and Itilde = 2 I for elliptic
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = State(t=0.0, q=rng.uniform(0.3, 3.0, 2), qdot=rng.uniform(-1.5, 1.5, 2))
            expected = ((2.0 if kind is ModelKind.ELLIPTIC_3D else 1.0)
                        * ermakov_invariant(s, kind))
            assert RadialSolution.from_state(s, kind).invariant == pytest.approx(
                expected, rel=1e-13)


    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_from_state_keeps_c_at_long_horizons(self, kind):
        # r^2 H - (r rdot)^2 / 2 loses 1.5e-9 to 1.7e-8 relative to
        # cancellation on the t = 1e4 sample of these runs
        traj = integrate(default_initial_state(kind), kind,
                         IntegratorConfig(t_end=1e4, sample_interval=0.5))
        c0 = RadialSolution.from_state(sample_state(traj, 0), kind).invariant
        late = RadialSolution.from_state(sample_state(traj, len(traj) - 1), kind).invariant
        assert abs(late - c0) <= 1e-10 * c0

class TestRadial3d:
    def test_matches_quadratic_law(self):
        r, rdot = radial_3d(1.5, 0.0, math.sqrt(3.0), 1.0)
        assert float(r) ** 2 == pytest.approx(6.0, rel=1e-15)
        assert float(rdot) == pytest.approx(3.0 / float(r), rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            radial_3d(-1.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            radial_3d(0.01, 10.0, 0.5, 1.0)  # r^2 dips negative


class TestTimeReparam:
    def test_zero_at_t0(self):
        sol = RadialSolution(energy=1.0, invariant=2.0, t0=0.3)
        assert float(time_reparam(sol, 0.3)) == 0.0

    def test_closed_form_value(self):
        sol = RadialSolution(energy=1.0, invariant=2.0, t0=0.0)
        assert float(time_reparam(sol, 1.0)) == pytest.approx(math.pi / 8.0,
                                                              rel=1e-14)

    def test_asymptote(self):
        sol = RadialSolution(energy=1.0, invariant=2.0, t0=0.0)
        assert float(time_reparam(sol, 1e9)) == pytest.approx(math.pi / 4.0,
                                                              rel=1e-8)

    def test_against_adaptive_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sol = RadialSolution(energy=rng.uniform(0.3, 3.0),
                                 invariant=rng.uniform(2.0, 6.0),
                                 t0=rng.uniform(-1.0, 1.0))
            t = sol.t0 + rng.uniform(0.1, 10.0)
            oracle, err = quad(lambda u: 1.0 / float(radial(sol, u)[0]) ** 2,
                               sol.t0, t, epsabs=1e-13, epsrel=1e-13)
            assert err < 1e-11
            assert float(time_reparam(sol, t)) == pytest.approx(oracle, abs=1e-10)


class TestAngular:
    def test_rest_at_potential_minimum(self):
        grid = np.linspace(0.0, 2.0, 41)
        kind = ModelKind.TWO_D
        phi, dphi = angular_quadrature(AngularSolution.from_angle(2.0, math.pi / 4.0, 1, kind),
                                       kind, grid)
        assert np.max(np.abs(phi - math.pi / 4.0)) <= 1e-12
        assert np.max(np.abs(dphi)) <= 1e-12

    def test_oscillation_between_turning_points(self):
        # turning points of U = 2/sin(2 phi) at invariant 3: sin(2 phi) = 2/3
        lo = 0.5 * math.asin(2.0 / 3.0)
        hi = math.pi / 2.0 - lo
        grid = np.linspace(0.0, 6.0, 2001)
        kind = ModelKind.TWO_D
        phi, _ = angular_quadrature(AngularSolution.from_angle(3.0, math.pi / 4.0, 1, kind),
                                    kind, grid)
        assert np.min(phi) >= lo - 1e-6 and np.max(phi) <= hi + 1e-6
        assert np.min(phi) <= lo + 1e-3 and np.max(phi) >= hi - 1e-3  # reached
        assert np.all((phi > 0.0) & (phi < math.pi / 2.0))

    def test_invariant_is_conserved(self):
        grid = np.linspace(0.0, 5.0, 501)
        for kind, inv in ((ModelKind.TWO_D, 2.7), (ModelKind.ELLIPTIC_3D, 5.2)):
            phi, dphi = angular_quadrature(
                AngularSolution.from_angle(inv, angular_minimum(kind)[0] + 0.1, 1, kind),
                kind, grid)
            along = 0.5 * dphi ** 2 + angular_potential(phi, kind)
            assert np.max(np.abs(along - inv)) <= 1e-8

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(phi0=st.floats(0.2, 1.35), excess=st.floats(0.0, 40.0),
           sign=st.sampled_from([-1, 1]))
    def test_quadrature_on_random_invariants(self, kind, phi0, excess, sign):
        # invariant = U(phi0) + excess.  phi is the angle of the rel/abs
        # 1e-14 landing run's unit vector, bit for bit; measured on 150
        # random draws per model over these ranges, the invariant held to
        # 6.5e-13 relative.
        invariant = float(angular_potential(phi0, kind)) + excess
        grid = np.linspace(0.0, 3.0, 301)
        phi, dphi = angular_quadrature(AngularSolution.from_angle(invariant, phi0, sign, kind),
                                       kind, grid)
        v0 = sign * math.sqrt(2.0 * (invariant - float(angular_potential(phi0, kind))))
        landed = solve_ode(_angular_field(kind), 0.0, angular_start(phi0, v0), grid,
                           rel_tol=1e-14, abs_tol=1e-14)
        assert phi.tobytes() == np.arctan2(landed[:, 1], landed[:, 0]).tobytes()
        along = 0.5 * dphi ** 2 + angular_potential(phi, kind)
        assert np.max(np.abs(along - invariant)) <= 1e-11 * invariant

    def test_stage_leaving_the_range_is_rejected(self):
        # At a large invariant the steps overshoot the turning points, so
        # stages fall outside (0, pi/2), where the elliptic slope would take
        # a complex power; the field must reject them.
        inv = 1e4
        kind = ModelKind.ELLIPTIC_3D
        phi, dphi = angular_quadrature(
            AngularSolution.from_angle(inv, math.atan(1.0 / math.sqrt(2.0)), 1, kind),
            kind, np.linspace(0.0, 2.0, 11), rel_tol=1e-8, abs_tol=1e-8)
        assert np.all((phi > 0.0) & (phi < math.pi / 2.0))
        along = 0.5 * dphi ** 2 + angular_potential(phi, kind)
        assert np.max(np.abs(along - inv)) / inv <= 1e-4

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(log_excess=st.floats(math.log10(2e-3), 4.0))
    def test_phase_returns_after_the_closed_form_period(self, kind, log_excess):
        # The invariant keeps a phase error; the period does not.  Started at
        # the potential minimum phi*, phi is back at phi* after T(C).  Over
        # 150 random draws per model, on the phi field, it came back within
        # 2.3e-11 (2d) and 1.1e-12 (elliptic).
        phi_star, u_min = angular_minimum(kind)
        invariant = u_min + 10.0 ** log_excess
        T = closed_form_period(kind, invariant)
        phi, _ = angular_quadrature(AngularSolution.from_angle(invariant, phi_star, 1, kind),
                                    kind, [0.0, T])
        assert abs(phi[-1] - phi_star) <= 1e-10

    def test_no_motion_below_minimum(self):
        with pytest.raises(NoMotionError, match="below the potential minimum"):
            AngularSolution.from_angle(1.9, math.pi / 4, 1, ModelKind.TWO_D)
        with pytest.raises(NoMotionError, match="classically forbidden"):
            AngularSolution.from_angle(2.5, 0.05, 1, ModelKind.TWO_D)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_time_is_refused(self, bad):
        # unchecked, such a grid would give phi0 at every sample
        with pytest.raises(DomainError):
            angular_quadrature(AngularSolution.from_angle(5.0, 0.7, 1, ModelKind.TWO_D),
                               ModelKind.TWO_D, [0.0, 0.5, bad])

    def test_decreasing_grid_is_refused(self):
        with pytest.raises(DomainError, match="non-decreasing"):
            angular_quadrature(AngularSolution.from_angle(5.0, 0.7, 1, ModelKind.TWO_D),
                               ModelKind.TWO_D, [0.0, 0.5, 0.4])

    def test_repeated_grid_time_is_the_same_sample(self):
        # at large H t successive ttilde round to the same double
        phi, dphi = angular_quadrature(AngularSolution.from_angle(5.0, 0.7, 1, ModelKind.TWO_D),
                                       ModelKind.TWO_D, [0.0, 0.5, 0.5, 1.0, 1.0])
        assert phi[1] == phi[2] and phi[3] == phi[4] and dphi[3] == dphi[4]

    def test_phi0_validation(self):
        with pytest.raises(DomainError, match="phi0"):
            AngularSolution.from_angle(3.0, 0.0, 1, ModelKind.TWO_D)
        with pytest.raises(DomainError, match="phi0"):
            AngularSolution.from_angle(3.0, math.pi / 2.0, 1, ModelKind.TWO_D)
        # the angle is checked first, then the sign, then the invariant
        with pytest.raises(DomainError, match="phi0"):
            AngularSolution.from_angle(1.0, 0.0, 0, ModelKind.TWO_D)
        with pytest.raises(DomainError, match="sign0"):
            AngularSolution.from_angle(1.0, 0.7, 0, ModelKind.TWO_D)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    def test_potential_is_v_on_the_unit_circle(self, kind):
        phi = np.linspace(0.05, 1.5, 30)
        q = np.stack([np.cos(phi), np.sin(phi)], axis=-1) / np.sqrt(kind.weights)
        assert np.allclose(angular_potential(phi, kind), potential(q, kind),
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    @settings(max_examples=50, deadline=None)
    @given(phi=st.floats(0.05, 1.5))
    def test_field_slope_is_minus_the_potential_slope(self, kind, phi):
        h = 1e-6
        u = float(angular_potential(phi, kind))
        slope = float(angular_potential(phi + h, kind)
                      - angular_potential(phi - h, kind)) / (2.0 * h)
        # at rest on the unit circle, u'' = phi'' (-sin phi, cos phi)
        c, s = math.cos(phi), math.sin(phi)
        _, _, ax, ay = _angular_field(kind)(0.0, [c, s, 0.0, 0.0])
        assert abs(c * ay - s * ax + slope) <= 1e-6 * u
        assert abs(c * ax + s * ay) <= 1e-14 * u

    @pytest.mark.parametrize("kind", [ModelKind.ONE_D, ModelKind.THREE_D])
    def test_non_planar_models_are_unsupported(self, kind):
        with pytest.raises(UnsupportedModelError):
            angular_potential(0.5, kind)
        with pytest.raises(UnsupportedModelError):
            angular_minimum(kind)

    def test_2d_minimum_is_exact(self):
        assert angular_minimum(ModelKind.TWO_D) == (math.pi / 4.0, 2.0)

    def test_elliptic_minimum_value(self):
        phi_star, u_min = angular_minimum(ModelKind.ELLIPTIC_3D)
        assert u_min == pytest.approx(4.5, rel=1e-15)
        assert float(angular_potential(phi_star, ModelKind.ELLIPTIC_3D)) == \
            pytest.approx(4.5, rel=1e-12)


class TestComposedPipeline:
    @pytest.mark.parametrize("kind,q0,qd0", [
        (ModelKind.TWO_D, [1.0, 1.0], [-0.5, 0.5]),
        (ModelKind.TWO_D, [0.8, 1.5], [0.3, -0.4]),
        (ModelKind.ELLIPTIC_3D, [1.0, 1.2], [-0.3, 0.45]),
    ])
    def test_matches_direct_integration(self, kind, q0, qd0):
        initial = State(t=0.0, q=q0, qdot=qd0)
        cfg = IntegratorConfig(t_end=10.0, sample_interval=0.01,
                               rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(initial, kind, cfg)

        rsol = RadialSolution.from_state(initial, kind)
        asol = AngularSolution.from_state(initial, kind)
        r, _ = radial(rsol, traj.times)
        ttilde = np.asarray(time_reparam(rsol, traj.times))
        phi, _ = angular_quadrature(asol, kind, ttilde - ttilde[0],
                                    rel_tol=1e-12, abs_tol=1e-14)
        if kind is ModelKind.TWO_D:
            X = r * np.cos(phi)
            Y = r * np.sin(phi)
        else:
            X = r * np.cos(phi) / math.sqrt(2.0)
            Y = r * np.sin(phi)
        assert np.max(np.abs(X - traj.qs[:, 0])) <= 1e-6
        assert np.max(np.abs(Y - traj.qs[:, 1])) <= 1e-6

    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_closed_forms_on_random_states(self, kind, data):
        # one_d_solution (1d), radial (2d, elliptic) or radial_3d, each in
        # the radius r^2 = sum(M q^2) of the integrated trajectory
        initial = State(
            t=0.0, q=[data.draw(st.floats(0.6, 1.8)) for _ in range(kind.dim)],
            qdot=[data.draw(st.floats(-0.8, 0.8)) for _ in range(kind.dim)])
        traj = integrate(initial, kind,
                         IntegratorConfig(t_end=50.0, sample_interval=0.5))
        H = energies(initial, kind).hamiltonian
        r, r_rdot = radius(traj.qs, traj.qdots, kind)
        t0 = -r_rdot[0] / (2.0 * H)
        if kind is ModelKind.ONE_D:
            exact, _ = one_d_solution(H, t0, traj.times)
        elif kind is ModelKind.THREE_D:
            exact, _ = radial_3d(H, noether_invariant(initial, kind), r[0],
                                 traj.times)
        else:
            inv = ((2.0 if kind is ModelKind.ELLIPTIC_3D else 1.0)
                   * ermakov_invariant(initial, kind))
            exact, _ = radial(RadialSolution(H, inv, t0), traj.times)
        assert np.max(np.abs(r - exact) / exact) <= 1e-8
        # the one law of every model, C = r^2 H - (r rdot)^2 / 2
        generic, _ = radial(RadialSolution.from_state(initial, kind), traj.times)
        assert np.max(np.abs(r - generic) / generic) <= 1e-8

    def test_1d_closed_form_vs_integrator(self):
        initial = State(t=0.0, q=[0.9], qdot=[0.6])
        cfg = IntegratorConfig(t_end=10.0, sample_interval=0.01,
                               rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(initial, ModelKind.ONE_D, cfg)
        from fireball import energies
        H = energies(initial, ModelKind.ONE_D).hamiltonian
        t0 = -initial.q[0] * initial.qdot[0] / (2.0 * H)
        X, _ = one_d_solution(H, t0, traj.times)
        assert np.max(np.abs(X - traj.qs[:, 0])) <= 1e-6

    def test_3d_radial_vs_integrator(self):
        from fireball import energies, noether_invariant
        initial = State(t=0.0, q=[1.0, 1.3, 0.9], qdot=[-0.2, 0.35, 0.15])
        cfg = IntegratorConfig(t_end=10.0, sample_interval=0.01,
                               rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(initial, ModelKind.THREE_D, cfg)
        H = energies(initial, ModelKind.THREE_D).hamiltonian
        J = noether_invariant(initial, ModelKind.THREE_D)
        r, _ = radial_3d(H, J, float(np.linalg.norm(initial.q)), traj.times)
        r_num = np.linalg.norm(traj.qs, axis=1)
        assert np.max(np.abs(r - r_num)) <= 1e-6


class TestOneD:
    def test_reference_values(self):
        X, Xd = one_d_solution(0.5, 0.0, 0.0)
        assert float(X) == 1.0 and float(Xd) == 0.0
        X1, _ = one_d_solution(0.5, 0.0, 1.0)
        assert float(X1) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_solves_the_equation(self):
        h = 1e-4
        X = [float(one_d_solution(0.5, 0.0, 0.7 + k * h)[0]) for k in (-1, 0, 1)]
        second = (X[0] - 2 * X[1] + X[2]) / h ** 2
        assert second == pytest.approx(1.0 / X[1] ** 3, abs=1e-6)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            one_d_solution(0.0, 0.0, 1.0)


class TestSuperposition:
    def test_at_t0(self):
        u, tau, Y = superposition_1d(1.0, 0.5, 0.5)
        assert float(u) == 0.0 and float(tau) == 0.0 and float(Y) == 0.0

    def test_reference_value(self):
        u, tau, Y = superposition_1d(0.5, 0.0, 1.0)
        assert float(Y) == pytest.approx(1.0, rel=1e-15)
        assert float(tau) == pytest.approx(math.pi / 4.0, rel=1e-15)
        assert float(u) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_free_motion_is_exactly_linear(self):
        # power-of-two spacings make the linearity exact in floating point
        _, _, Y = superposition_1d(1.7, 0.0, np.array([0.0, 1.0, 2.0]))
        assert (Y[2] - 2 * Y[1] + Y[0]) == 0.0
        _, _, Y = superposition_1d(1.7, 0.0, np.array([0.0, 2.0, 4.0]))
        assert (Y[2] - 2 * Y[1] + Y[0]) == 0.0
        # generic grids are linear to rounding
        _, _, Y = superposition_1d(1.7, 0.0, np.array([0.0, 1.0, 2.0, 3.0]))
        assert np.max(np.abs(Y[2:] - 2 * Y[1:-1] + Y[:-2])) <= 8 * np.finfo(float).eps

    def test_invariant_recovered_by_substitution(self):
        rng = np.random.default_rng(10)
        spec = pinney_coupling()
        for _ in range(20):
            inv, t0 = rng.uniform(0.1, 5.0), rng.uniform(-1.0, 1.0)
            t = t0 + rng.uniform(-3.0, 3.0)
            u, tau, Y = superposition_1d(inv, t0, t)
            X = math.sqrt((t - t0) ** 2 + 1.0)
            Xd = (t - t0) / X
            Yd = math.sqrt(2.0 * inv)
            got = general_ermakov_invariant(spec, X, float(Y), Xd, Yd)
            assert got == pytest.approx(inv, rel=1e-12)

    def test_rejects_nonpositive_invariant(self):
        with pytest.raises(DomainError):
            superposition_1d(0.0, 0.0, 1.0)
