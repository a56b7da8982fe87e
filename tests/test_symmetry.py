import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fireball import (DomainError, IntegratorConfig, UnsupportedModelError,
                      ModelKind, PointSymmetry, State, Trajectory,
                      energies, integrate,
                      noether_condition_residual, noether_invariant,
                      ode_residual, one_d_solution,
                      scaled_trajectory, scaling_symmetry, symmetry, time_translation)
from fireball.dynamics import accel, potential
from fireball.invariants import ermakov_values
from fireball.symmetry import ErmakovSymmetry, noether_terms
from batch import draw_states
from reference import ermakov_invariant
from stencil import stencil_accelerations


def random_states(kind, n=10, seed=11):
    rng = np.random.default_rng(seed)
    return [State(t=rng.uniform(0.0, 4.0), q=rng.uniform(0.5, 2.0, kind.dim),
                  qdot=rng.uniform(-1.0, 1.0, kind.dim)) for _ in range(n)]


def perturbed_scaling(factor=1.1):
    """Scaling generator with eta scaled by a wrong factor: not a symmetry."""
    return PointSymmetry(
        tau=lambda t, q: 2.0 * t,
        eta=lambda t, q: factor * np.asarray(q, dtype=float),
        gauge=lambda t, q: 0.0,
        tau_grad=lambda t, q: (2.0, np.zeros_like(q)),
        eta_grad=lambda t, q: (np.zeros_like(q), factor * np.eye(q.shape[-1])),
        gauge_grad=lambda t, q: (0.0, np.zeros_like(q)),
    )


def invariant(sym, kind, s):
    """The symmetry's Noether invariant at the State ``s``."""
    [(_, inv)] = noether_terms([sym], kind, s.t, s.q, s.qdot)
    return inv


class TestNoetherCondition:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_scaling_symmetry_residual(self, kind):
        sym = scaling_symmetry()
        for s in random_states(kind):
            assert abs(noether_condition_residual(sym, kind, s)) <= 1e-10

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_time_translation_residual_is_exactly_zero(self, kind):
        sym = time_translation()
        for s in random_states(kind):
            assert noether_condition_residual(sym, kind, s) == 0.0

    def test_perturbed_symmetry_is_detected(self):
        sym = perturbed_scaling()
        for s in random_states(ModelKind.TWO_D, n=10, seed=12):
            assert abs(noether_condition_residual(sym, ModelKind.TWO_D, s)) > 1e-3


class TestNoetherInvariant:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_scaling_reproduces_model_formula(self, kind):
        sym = scaling_symmetry()
        for s in random_states(kind):
            expected = noether_invariant(s, kind)
            got = invariant(sym, kind, s)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_time_translation_gives_energy(self, kind):
        sym = time_translation()
        for s in random_states(kind):
            H = energies(s, kind).hamiltonian
            got = invariant(sym, kind, s)
            assert abs(got - H) <= 1e-12 * H

    def test_1d_reference_value(self):
        s = State(t=2.0, q=[1.0], qdot=[0.0])
        assert invariant(scaling_symmetry(), ModelKind.ONE_D, s) == pytest.approx(2.0, rel=1e-15)

    def test_elliptic_weighting(self):
        sym = scaling_symmetry()
        for s in random_states(ModelKind.ELLIPTIC_3D):
            H = energies(s, ModelKind.ELLIPTIC_3D).hamiltonian
            expected = 2 * s.t * H - (2 * s.q[0] * s.qdot[0] + s.q[1] * s.qdot[1])
            got = invariant(sym, ModelKind.ELLIPTIC_3D, s)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def generator_apply(sym, field, state, h=1e-6):
    """The prolonged generator (tau, eta, etadot - taudot qdot) of a point
    symmetry of the 2d model applied to a scalar field of (t, q, qdot): the
    field's derivative along that vector, by one central difference of step
    h.  A point symmetry's total derivatives need neither qdd nor L."""
    tau, eta, taudot, etadot, _, _ = sym.prolongation(ModelKind.TWO_D, state.t, state.q,
                                                      state.qdot, None, None)
    zeta = etadot - taudot * state.qdot

    def at(s):
        return field(state.t + s * tau, state.q + s * eta, state.qdot + s * zeta)

    return (at(h) - at(-h)) / (2.0 * h)


class TestExtendedGenerator:
    def test_annihilates_the_ermakov_invariant(self):
        sym = scaling_symmetry()

        def field(t, q, qd):
            return float(ermakov_values(q, qd, ModelKind.TWO_D))

        for s in random_states(ModelKind.TWO_D):
            assert abs(generator_apply(sym, field, s)) <= 1e-6

    def test_energy_has_scaling_degree_minus_two(self):
        sym = scaling_symmetry()

        def field(t, q, qd):
            return float(0.5 * np.sum(qd ** 2) + potential(q, ModelKind.TWO_D))

        for s in random_states(ModelKind.TWO_D, n=5):
            H = energies(s, ModelKind.TWO_D).hamiltonian
            got = generator_apply(sym, field, s)
            assert got == pytest.approx(-2.0 * H, rel=1e-6)


class TestScaledTrajectory:
    def test_beta_one_is_identity(self):
        s = State(t=0.0, q=[1.0], qdot=[0.2])
        traj = integrate(s, ModelKind.ONE_D,
                         IntegratorConfig(t_end=1.0, sample_interval=0.1))
        mapped = scaled_trajectory(traj, 1.0)
        assert np.array_equal(mapped.times, traj.times)
        assert np.array_equal(mapped.qs, traj.qs)
        assert np.array_equal(mapped.qdots, traj.qdots)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_beta_not_positive_and_finite(self, beta):
        s = State(t=0.0, q=[1.0], qdot=[0.0])
        traj = integrate(s, ModelKind.ONE_D,
                         IntegratorConfig(t_end=1.0, sample_interval=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beta must be positive and finite"):
                scaled_trajectory(traj, beta)

    @pytest.mark.parametrize("beta", [1e200, 1e-300])
    def test_rejects_a_beta_whose_image_overflows(self, beta):
        # 1e200 overflows beta ** 2 (a float power), 1e-300 the rates / beta
        traj = Trajectory(kind=ModelKind.ONE_D, times=[0.0, 1.0], qs=[[1.0], [1.1]],
                          qdots=[[0.0], [1e10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beta = .* maps the trajectory beyond"):
                scaled_trajectory(traj, beta)

    def test_mapped_1d_solution_still_solves_the_ode(self):
        times = np.arange(0.0, 2.0 + 1e-12, 2.5e-4)
        X, Xd = one_d_solution(0.5, 0.0, times)
        traj = Trajectory(kind=ModelKind.ONE_D, times=times,
                          qs=X[:, None], qdots=Xd[:, None])
        mapped = scaled_trajectory(traj, 2.0)
        assert ode_residual(*stencil_accelerations(mapped)) <= 1e-5

    def test_ermakov_invariant_is_scaling_invariant(self):
        # the scaling generator annihilates I exactly when the finite map
        # leaves it unchanged
        s = State(t=0.0, q=[1.0, 1.4], qdot=[-0.3, 0.2])
        for kind in (ModelKind.TWO_D, ModelKind.ELLIPTIC_3D):
            traj = integrate(s, kind, IntegratorConfig(t_end=5.0, sample_interval=0.25))
            src = ermakov_values(traj.qs, traj.qdots, kind)
            for beta in (0.5, 2.0, 3.0, 5.0):
                mapped = scaled_trajectory(traj, beta)
                img = ermakov_values(mapped.qs, mapped.qdots, kind)
                assert np.max(np.abs(src - img) / src) <= 1e-12

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("beta", [0.5, 2.0, 5.0])
    def test_form_invariance(self, kind, beta):
        initial = State(t=0.0, q=np.full(kind.dim, 1.1),
                        qdot=np.linspace(-0.2, 0.3, kind.dim))
        span = 4.0 / beta ** 2
        # mapped-grid spacing sized so the second-difference stencil stays
        # below the residual bound (derivatives grow like beta**-7)
        mapped_dt = 1e-3 * min(1.0, beta ** 2)
        cfg = IntegratorConfig(t_end=span, sample_interval=mapped_dt / beta ** 2,
                               rel_tol=1e-11, abs_tol=1e-13)
        traj = integrate(initial, kind, cfg)
        assert ode_residual(*stencil_accelerations(scaled_trajectory(traj, beta))) <= 1e-5

    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data(), beta=st.floats(min_value=0.5, max_value=2.0))
    def test_commutes_with_integrate(self, kind, data, beta):
        # integrate then map == map the initial state and grid, then integrate
        q = np.array([data.draw(st.floats(0.6, 1.8)) for _ in range(kind.dim)])
        qdot = np.array([data.draw(st.floats(-0.8, 0.8)) for _ in range(kind.dim)])
        cfg = IntegratorConfig(t_end=10.0, sample_interval=0.5)
        image = scaled_trajectory(integrate(State(t=0.0, q=q, qdot=qdot), kind, cfg), beta)
        direct = integrate(State(t=0.0, q=beta * q, qdot=qdot / beta), kind,
                           IntegratorConfig(t_end=beta ** 2 * cfg.t_end,
                                            sample_interval=beta ** 2 * cfg.sample_interval))
        assert len(direct) == len(image)
        np.testing.assert_allclose(direct.times, image.times, rtol=1e-12)
        for got, want in ((direct.qs, image.qs), (direct.qdots, image.qdots)):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_near_identity_matches_generator(self):
        s = State(t=0.0, q=[1.0, 1.2], qdot=[0.1, -0.2])
        traj = integrate(s, ModelKind.TWO_D,
                         IntegratorConfig(t_end=5.0, sample_interval=0.5))
        eps = 1e-6
        mapped = scaled_trajectory(traj, 1.0 + eps)
        assert np.max(np.abs(mapped.times - traj.times - eps * 2 * traj.times)) <= 1e-10
        assert np.max(np.abs(mapped.qs - traj.qs - eps * traj.qs)) <= 1e-10
        assert np.max(np.abs(mapped.qdots - traj.qdots + eps * traj.qdots)) <= 1e-6


class TestOdeResidual:
    def test_detects_a_non_solution(self):
        times = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        qs = np.exp(times)[:, None]  # not a solution of Xdd = 1/X^3
        traj = Trajectory(kind=ModelKind.ONE_D, times=times, qs=qs,
                          qdots=qs.copy())
        assert ode_residual(*stencil_accelerations(traj)) > 1e-2

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_sees_a_force_off_by_1e_9(self, kind):
        # the bound of verify's scaling_form_invariance is 1e-12
        traj = integrate(State(t=0.0, q=np.full(kind.dim, 1.1),
                               qdot=np.linspace(-0.2, 0.3, kind.dim)),
                         kind, IntegratorConfig(t_end=5.0, sample_interval=0.5))
        force = accel(traj.qs, kind)
        assert ode_residual(traj, force) == 0.0
        assert ode_residual(traj, force * (1.0 + 1e-9)) == pytest.approx(1e-9, rel=1e-6)


ERMAKOV_TAUS = [lambda t, q, qd: 0.0,
                lambda t, q, qd: 1.0,
                lambda t, q, qd: q[..., 0] * qd[..., 1]]


def ermakov_terms(s):
    """(residual, invariant) of the Ermakov symmetry at the 2d State ``s``,
    one pair per free function tau of ERMAKOV_TAUS."""
    return noether_terms([ErmakovSymmetry(tau) for tau in ERMAKOV_TAUS],
                         ModelKind.TWO_D, s.t, s.q, s.qdot)


class TestDynamicalSymmetry:
    def test_residual_and_invariant(self):
        for s in random_states(ModelKind.TWO_D, n=8, seed=13):
            for residual, inv in ermakov_terms(s):
                assert abs(residual) <= 1e-12
                assert abs(inv - ermakov_invariant(s, ModelKind.TWO_D)) <= 1e-10

    def test_invariant_is_tau_independent(self):
        for s in random_states(ModelKind.TWO_D, n=5, seed=14):
            values = [inv for _, inv in ermakov_terms(s)]
            assert max(values) - min(values) <= 1e-10

    @pytest.mark.parametrize("kind", [k for k in ModelKind if k is not ModelKind.TWO_D])
    def test_refuses_other_models(self, kind):
        s = random_states(kind, n=1)[0]
        with pytest.raises(UnsupportedModelError, match="2d"):
            noether_terms([ErmakovSymmetry(ERMAKOV_TAUS[0])], kind, s.t, s.q, s.qdot)

    def test_force_off_by_1e_9_is_detected(self, monkeypatch):
        # verify's bound on the residual is 1e-12
        exact = symmetry.accel
        monkeypatch.setattr(symmetry, "accel",
                            lambda q, kind: exact(q, kind) * (1.0 + 1e-9))
        for s in random_states(ModelKind.TWO_D, n=8, seed=15):
            for residual, _ in ermakov_terms(s):
                assert abs(residual) > 1e-12


class TestBatchForms:
    """The single-State residual is its batch form on a row of one."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(list(ModelKind)), data=st.data())
    def test_point_symmetries(self, kind, data):
        self.check_rows([scaling_symmetry(), time_translation()], kind, data)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_ermakov_symmetry(self, data):
        self.check_rows([ErmakovSymmetry(tau) for tau in ERMAKOV_TAUS], ModelKind.TWO_D, data)

    @staticmethod
    def check_rows(symmetries, kind, data):
        ts, qs, qdots, states = draw_states(data, kind)
        for sym, (residual, _) in zip(symmetries, noether_terms(symmetries, kind, ts, qs, qdots)):
            single = [noether_condition_residual(sym, kind, s) for s in states]
            assert residual.tolist() == single
