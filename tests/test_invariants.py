import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fireball import (DomainError, IntegratorConfig,
                      ModelKind, State, Trajectory, UnsupportedModelError,
                      energies, integrate,
                      invariant_report, noether_invariant, one_d_solution)
from fireball import dynamics
from fireball.analytic import angular_potential, polar_invariant_values
from fireball.invariants import (ermakov_values, hamiltonian_values,
                                 noether_values, radial_invariant_values)
from fireball.models import polar_values
from reference import (GeneralErmakovSpec, ermakov_invariant,
                       general_ermakov_invariant, pinney_coupling)

# A numpy warning fails the test that raised it, next to its cause.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

positive = st.floats(min_value=0.1, max_value=8.0)
rate = st.floats(min_value=-3.0, max_value=3.0)

NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)

# The paper's coupling antiderivatives F(Y/X), G(X/Y) of the planar models'
# Ermakov pairs: a reference independent of the radial invariant C.
TWO_D_PAIR = GeneralErmakovSpec(F=lambda s: s, G=lambda s: s)
ELLIPTIC_PAIR = GeneralErmakovSpec(F=lambda s: 0.75 * s ** (4.0 / 3.0),
                                   G=lambda s: 1.5 * s ** (2.0 / 3.0))


class TestErmakov:
    def test_2d_values(self):
        assert ermakov_invariant(State(t=0, q=[1, 1], qdot=[0, 0]),
                                 ModelKind.TWO_D) == 2.0
        assert ermakov_invariant(State(t=0, q=[1, 2], qdot=[0, 0]),
                                 ModelKind.TWO_D) == pytest.approx(2.5, rel=1e-15)

    def test_elliptic_values(self):
        s = State(t=0, q=[1, 1], qdot=[0, 0])
        assert ermakov_invariant(s, ModelKind.ELLIPTIC_3D) == pytest.approx(2.25)
        assert radial_invariant_values(s.q, s.qdot, ModelKind.ELLIPTIC_3D) == pytest.approx(4.5)

    def test_unsupported_kinds(self):
        with pytest.raises(UnsupportedModelError):
            ermakov_invariant(State(t=0, q=[1], qdot=[0]), ModelKind.ONE_D)
        with pytest.raises(UnsupportedModelError):
            ermakov_invariant(State(t=0, q=[1, 1, 1], qdot=[0, 0, 0]),
                              ModelKind.THREE_D)

    @settings(max_examples=300, deadline=None)
    @given(X=positive, Y=positive, Xd=rate, Yd=rate)
    def test_2d_lower_bound(self, X, Y, Xd, Yd):
        value = ermakov_invariant(State(t=0, q=[X, Y], qdot=[Xd, Yd]),
                                  ModelKind.TWO_D)
        assert value >= 2.0 - 1e-12  # fp slack at the AM-GM minimum

    @settings(max_examples=300, deadline=None)
    @given(X=positive, Y=positive, Xd=rate, Yd=rate)
    def test_elliptic_lower_bound(self, X, Y, Xd, Yd):
        value = ermakov_invariant(State(t=0, q=[X, Y], qdot=[Xd, Yd]),
                                  ModelKind.ELLIPTIC_3D)
        assert value >= 9.0 / 4.0 - 1e-12


class TestGeneralErmakov:
    def test_unit_couplings_reduce_to_2d(self):
        spec = TWO_D_PAIR
        assert general_ermakov_invariant(spec, 1.0, 2.0, 0.0, 0.0) == \
            pytest.approx(2.5, rel=1e-15)
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, Y = rng.uniform(0.2, 4.0, 2)
            Xd, Yd = rng.uniform(-2, 2, 2)
            direct = ermakov_invariant(State(t=0, q=[X, Y], qdot=[Xd, Yd]),
                                       ModelKind.TWO_D)
            assert general_ermakov_invariant(spec, X, Y, Xd, Yd) == \
                pytest.approx(direct, rel=1e-14)

    def test_degenerate_pair_recovers_the_invariant(self):
        spec = pinney_coupling()
        for i0 in (0.5, 1.0, 3.75):
            got = general_ermakov_invariant(spec, 1.0, 0.0, 0.0,
                                            math.sqrt(2.0 * i0))
            assert got == pytest.approx(i0, rel=1e-15)

    def test_elliptic_couplings_match_closed_form(self):
        spec = ELLIPTIC_PAIR
        assert general_ermakov_invariant(spec, 1.0, 1.0, 0.0, 0.0) == \
            pytest.approx(2.25, rel=1e-15)
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, Y = rng.uniform(0.2, 4.0, 2)
            Xd, Yd = rng.uniform(-2, 2, 2)
            direct = ermakov_invariant(State(t=0, q=[X, Y], qdot=[Xd, Yd]),
                                       ModelKind.ELLIPTIC_3D)
            assert general_ermakov_invariant(spec, X, Y, Xd, Yd) == \
                pytest.approx(direct, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            general_ermakov_invariant(TWO_D_PAIR, -1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            general_ermakov_invariant(TWO_D_PAIR, 1.0, 0.0, 0.0, 0.0)


class TestRadialInvariant:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_is_each_models_invariant(self, kind, data):
        # C against each model's own form: the paper's Ermakov pairs (I for
        # 2d, Itilde = 2 I for elliptic), 1/2 in 1d, H r0^2 - J^2/2 in 3d
        q = [data.draw(st.floats(0.2, 4.0)) for _ in range(kind.dim)]
        qdot = [data.draw(st.floats(-2.0, 2.0)) for _ in range(kind.dim)]
        C = float(radial_invariant_values(q, qdot, kind))
        if kind is ModelKind.ONE_D:
            assert C == pytest.approx(0.5, rel=1e-15)
        elif kind is ModelKind.THREE_D:
            s = State(t=0.0, q=q, qdot=qdot)
            H, J = energies(s, kind).hamiltonian, noether_invariant(s, kind)
            assert C == pytest.approx(H * float(s.q @ s.q) - 0.5 * J * J, rel=1e-13)
        elif kind is ModelKind.TWO_D:
            assert C == pytest.approx(
                general_ermakov_invariant(TWO_D_PAIR, *q, *qdot), rel=1e-14)
        else:
            assert C == pytest.approx(
                2.0 * general_ermakov_invariant(ELLIPTIC_PAIR, *q, *qdot), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    @pytest.mark.parametrize("form", [hamiltonian_values, radial_invariant_values,
                                      ermakov_values])
    def test_batch_refuses_a_row_of_non_positive_or_nan_variance(self, form, bad):
        # the checked potential refuses the batch, NaN as zero
        qs, qdots = np.array([[1.0, 1.3], [bad, 1.0]]), np.array([[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(DomainError, match="singular force: non-positive variance"):
            form(qs, qdots, ModelKind.TWO_D)

    def test_batch_matches_rows(self):
        kind = ModelKind.THREE_D
        rng = np.random.default_rng(3)
        qs, qdots = rng.uniform(0.3, 3.0, (20, 3)), rng.uniform(-1.0, 1.0, (20, 3))
        rows = [float(radial_invariant_values(q, qd, kind)) for q, qd in zip(qs, qdots)]
        assert radial_invariant_values(qs, qdots, kind).tolist() == rows


class TestEllipticReduction:
    @pytest.mark.parametrize("seed", range(10))
    def test_3d_with_z_equal_to_x_is_the_elliptic_model(self, seed):
        # The elliptic model is the 3-d one on Z = X.  The two runs take
        # different steps; over seeds 0-9 their (X, Y) differ by at most
        # 1.0e-11 relative and their C by 2.6e-12.
        rng = np.random.default_rng(seed)
        (X, Y), (Xd, Yd) = rng.uniform(0.6, 1.8, 2), rng.uniform(-0.8, 0.8, 2)
        cfg = IntegratorConfig(t_end=50.0, sample_interval=0.5)
        full = integrate(State(t=0.0, q=[X, Y, X], qdot=[Xd, Yd, Xd]),
                         ModelKind.THREE_D, cfg)
        reduced = integrate(State(t=0.0, q=[X, Y], qdot=[Xd, Yd]),
                            ModelKind.ELLIPTIC_3D, cfg)
        assert np.array_equal(full.qs[:, 2], full.qs[:, 0])
        assert np.array_equal(full.times, reduced.times)
        assert np.max(np.abs(full.qs[:, :2] - reduced.qs) / reduced.qs) <= 1e-10
        c_full = invariant_report(full).values["C"]
        itilde = invariant_report(reduced).values["Itilde"]
        assert np.max(np.abs(c_full - itilde) / itilde) <= 1e-10


class TestNoether:
    def test_3d_at_t_zero(self):
        s = State(t=0.0, q=[1.2, 0.8, 1.5], qdot=[0.3, -0.2, 0.4])
        expected = -(1.2 * 0.3 - 0.8 * 0.2 + 1.5 * 0.4)
        assert noether_invariant(s, ModelKind.THREE_D) == pytest.approx(
            expected, rel=1e-14)
        rest = State(t=0.0, q=[1, 1, 1], qdot=[0, 0, 0])
        assert noether_invariant(rest, ModelKind.THREE_D) == 0.0

    def test_1d_value(self):
        s = State(t=2.0, q=[1.0], qdot=[0.0])
        assert noether_invariant(s, ModelKind.ONE_D) == pytest.approx(2.0, rel=1e-15)

    def test_elliptic_weights_momentum(self):
        s = State(t=1.0, q=[1.0, 2.0], qdot=[0.5, -0.25])
        from fireball import energies
        H = energies(s, ModelKind.ELLIPTIC_3D).hamiltonian
        expected = 2 * 1.0 * H - (2 * 1.0 * 0.5 + 2.0 * (-0.25))
        assert noether_invariant(s, ModelKind.ELLIPTIC_3D) == pytest.approx(
            expected, rel=1e-14)


class TestPolarInvariants:
    def test_2d_symmetric_point(self):
        s = State(t=0, q=[1, 1], qdot=[0, 0])
        H, inv = polar_invariant_values(*polar_values(s.q, s.qdot, ModelKind.TWO_D),
                                        ModelKind.TWO_D)
        assert inv == pytest.approx(2.0, rel=1e-14)
        assert H == pytest.approx(1.0, rel=1e-14)

    def test_elliptic_symmetric_point(self):
        s = State(t=0, q=[1, 1], qdot=[0, 0])
        H, itil = polar_invariant_values(*polar_values(s.q, s.qdot, ModelKind.ELLIPTIC_3D),
                                         ModelKind.ELLIPTIC_3D)
        assert itil == pytest.approx(4.5, rel=1e-13)
        assert H == pytest.approx(1.5, rel=1e-13)

    def test_minimum_of_angular_potential(self):
        _, inv = polar_invariant_values(3.7, math.pi / 4.0, 0.0, 0.0, ModelKind.TWO_D)
        assert inv == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("kind", [ModelKind.TWO_D, ModelKind.ELLIPTIC_3D])
    def test_agrees_with_cartesian(self, kind):
        from fireball import energies
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = State(t=0, q=rng.uniform(0.3, 3.0, 2), qdot=rng.uniform(-1.5, 1.5, 2))
            Hp, inv_p = polar_invariant_values(*polar_values(s.q, s.qdot, kind), kind)
            H = energies(s, kind).hamiltonian
            inv = ermakov_invariant(s, kind)
            if kind is ModelKind.ELLIPTIC_3D:
                inv *= 2.0
            assert abs(Hp - H) <= 1e-10 * max(1.0, abs(H))
            assert abs(inv_p - inv) <= 1e-10 * max(1.0, abs(inv))

    def test_naive_polar_coefficient_fails_the_substitution_oracle(self):
        # with the coefficient 3/2 instead of 3 * 2**(-1/3) the polar form
        # does not reproduce the doubled cartesian invariant
        s = State(t=0, q=[1, 1], qdot=[0, 0])
        _, phi, _, _ = polar_values(s.q, s.qdot, ModelKind.ELLIPTIC_3D)
        naive = 1.5 * (math.cos(phi) ** 2 * math.sin(phi)) ** (-2.0 / 3.0)
        assert naive == pytest.approx(9.0 * 2.0 ** (-5.0 / 3.0), rel=1e-12)
        assert abs(naive - radial_invariant_values(s.q, s.qdot, ModelKind.ELLIPTIC_3D)) > 1.0
        phi = np.linspace(0.05, 1.5, 30)
        assert np.allclose(
            angular_potential(phi, ModelKind.ELLIPTIC_3D),
            3.0 * 2 ** (-1.0 / 3.0) * (np.cos(phi) ** 2 * np.sin(phi)) ** (-2.0 / 3.0),
            rtol=1e-14, atol=0.0)


class TestReport:
    def test_exact_1d_trajectory_has_zero_drift(self):
        times = np.linspace(0.0, 10.0, 201)
        X, Xd = one_d_solution(0.5, 0.0, times)
        traj = Trajectory(kind=ModelKind.ONE_D, times=times,
                          qs=X[:, None], qdots=Xd[:, None])
        report = invariant_report(traj)
        assert set(report.values) == {"H", "J"}
        assert all(d <= 1e-12 for d in report.drift.values())

    def test_2d_integration_drift(self):
        s = State(t=0.0, q=[1.0, 1.4], qdot=[-0.3, 0.2])
        cfg = IntegratorConfig(t_end=100.0, sample_interval=0.5,
                               rel_tol=1e-10, abs_tol=1e-12)
        report = invariant_report(integrate(s, ModelKind.TWO_D, cfg))
        assert set(report.values) == {"H", "I", "J"}
        assert all(d <= 1e-8 for d in report.drift.values())

    def test_elliptic_itilde(self):
        s = State(t=0.0, q=[1.0, 1.4], qdot=[-0.3, 0.2])
        cfg = IntegratorConfig(t_end=50.0, sample_interval=0.5,
                               rel_tol=1e-10, abs_tol=1e-12)
        report = invariant_report(integrate(s, ModelKind.ELLIPTIC_3D, cfg))
        assert np.max(np.abs(report.values["Itilde"]
                             - 2.0 * report.values["I"])) <= 1e-12
        assert report.drift["Itilde"] <= 1e-8

    def test_bound_holds_along_trajectories(self):
        s = State(t=0.0, q=[0.7, 1.6], qdot=[0.5, -0.6])
        cfg = IntegratorConfig(t_end=50.0, sample_interval=0.1)
        report = invariant_report(integrate(s, ModelKind.TWO_D, cfg))
        assert np.all(report.values["I"] >= 2.0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_makes_no_positivity_check_of_its_own(self, kind, monkeypatch):
        # a Trajectory holds positive variances, so the report's V is unchecked
        def report():
            traj = integrate(State(t=0.0, q=[1.1, 0.8, 1.4][:kind.dim],
                                   qdot=[0.3, -0.2, 0.1][:kind.dim]),
                             kind, IntegratorConfig(t_end=3.0, sample_interval=0.25))
            return invariant_report(traj)

        checked = report()

        def refuse(q):
            raise AssertionError("positivity checked again")

        monkeypatch.setattr(dynamics, "_positive", refuse)
        unchecked = report()
        assert checked.drift == unchecked.drift
        assert all(np.array_equal(checked.values[name], unchecked.values[name])
                   for name in checked.values)
        with pytest.raises(AssertionError, match="positivity checked again"):
            dynamics.potential(np.ones(kind.dim), kind)  # the public form checks

    @pytest.mark.parametrize("kind", [ModelKind.THREE_D, ModelKind.ELLIPTIC_3D])
    def test_variances_near_1e200(self, kind):
        # P overflows inside the report's errstate and V is 0; the kinetic
        # energy, about 1e-380, underflows quietly to 0; no warning escapes
        d, M = kind.dim, kind.weights
        qs = 1e200 * np.array([[1.0, 1.5, 2.0], [1.1, 1.6, 2.1], [1.2, 1.7, 2.2]])[:, :d]
        qdots = 1e-190 * np.array([[0.3, -0.2, 0.1], [0.2, -0.1, 0.3], [0.1, 0.2, -0.3]])[:, :d]
        report = invariant_report(Trajectory(kind=kind, times=np.array([0.0, 1.0, 2.0]),
                                             qs=qs, qdots=qdots))
        assert report.values["H"].tolist() == [0.0, 0.0, 0.0]
        C = {ModelKind.THREE_D: "C", ModelKind.ELLIPTIC_3D: "Itilde"}[kind]
        for i, (q, qd) in enumerate(zip(qs.tolist(), qdots.tolist())):
            assert report.values["J"][i] == pytest.approx(
                -sum(m * x * v for m, x, v in zip(M, q, qd)), rel=1e-15)
            assert report.values[C][i] == pytest.approx(0.5 * sum(
                M[a] * M[b] * (q[a] * qd[b] - q[b] * qd[a]) ** 2
                for a in range(d) for b in range(a + 1, d)), rel=1e-14)
        assert all(map(math.isfinite, report.drift.values()))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_values_equal_the_batch_functions(self, kind):
        # the report evaluates V and H once and derives J and C from them:
        # same bits
        traj = integrate(State(t=0.5, q=[1.1, 0.8, 1.4][:kind.dim],
                               qdot=[0.3, -0.2, 0.1][:kind.dim]),
                         kind, IntegratorConfig(t_end=3.0, sample_interval=0.25))
        report = invariant_report(traj)
        assert np.array_equal(report.values["H"],
                              hamiltonian_values(traj.qs, traj.qdots, kind))
        assert np.array_equal(report.values["J"],
                              noether_values(traj.times, traj.qs, traj.qdots, kind))
        # and C, under each name it carries, from the one formula
        if kind.has_ermakov_invariant:
            assert np.array_equal(report.values["I"],
                                  ermakov_values(traj.qs, traj.qdots, kind))
        C = {ModelKind.THREE_D: "C", ModelKind.ELLIPTIC_3D: "Itilde"}.get(kind)
        if C is not None:
            assert np.array_equal(report.values[C],
                                  radial_invariant_values(traj.qs, traj.qdots, kind))
