import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss

from fireball import (DomainError, IntegratorConfig, ModelKind, PhysicalParams,
                      State, Trajectory, energies,
                      integrate, one_d_solution, pde_residuals,
                      reference_scales, total_energy)
from fireball.dynamics import accel
from fireball import verification
from fireball.hydro import PdeResidualReport, moment_values
from fireball.verification import default_initial_state
from batch import draw_states, reference_run, sample_state
from reference import dimensionalize, fields_at
from stencil import stencil_accelerations

UNIT = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, m=1.0)
UNIT3 = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, Z0=1.0, m=1.0)
PARAMS3 = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, Z0=0.7, m=1.5)


def hydro_checks_trajectory(kind):
    """The 9 samples of verify's reference run (t = 0, 2.5, ..., 20) that
    its ``pde_residual_max`` reads."""
    run = reference_run(kind)
    return Trajectory(kind=kind, times=run.times[::25], qs=run.qs[::25],
                      qdots=run.qdots[::25])


def stencil_residuals(params, traj):
    """pde_residuals at the interior samples of a fine uniform-grid
    trajectory, with their second-difference accelerations."""
    inner, qdds = stencil_accelerations(traj)
    return pde_residuals(params, inner.qs, inner.qdots, qdds, traj.kind)


def tensor_product_sum(params, state, kind, nodes, density_only):
    """Gauss-Hermite sum of n m v^2/2 + eps (or n) over the full (nodes,)^D
    grid of nodes x_a = sqrt(2) Q_a u_a, one axis contracted at a time."""
    u, w = hermgauss(nodes)
    D = kind.spatial_dim
    axes = list(kind.axes)
    Q, Qd = state.q[axes], state.qdot[axes]
    ratio = np.prod(params.variances(kind)[axes]) / np.prod(Q)
    integrand = np.full((nodes,) * D, 1.0 if density_only
                        else D / 2 * params.T0 * ratio ** (2.0 / D))
    if not density_only:
        for a in range(D):
            shape = [1] * D
            shape[a] = nodes
            integrand = integrand + (params.m * (Qd[a] * u) ** 2).reshape(shape)
    for _ in range(D):
        integrand = integrand @ w
    return params.n0 * ratio * np.prod(math.sqrt(2.0) * Q) * float(integrand)


def exact_1d_trajectory(t_end=2.0, dt=1e-3):
    times = np.arange(0.0, t_end + 1e-12, dt)
    X, Xd = one_d_solution(0.5, 0.0, times)
    return Trajectory(kind=ModelKind.ONE_D, times=times, qs=X[:, None],
                      qdots=Xd[:, None])


def exact_2d_trajectory(t_end=2.0, dt=1e-3):
    # X = Y reduces the planar system to the 1-d closed form
    times = np.arange(0.0, t_end + 1e-12, dt)
    X, Xd = one_d_solution(0.5, 0.0, times)
    qs = np.column_stack([X, X])
    qdots = np.column_stack([Xd, Xd])
    return Trajectory(kind=ModelKind.TWO_D, times=times, qs=qs, qdots=qdots)


class TestFields:
    def test_reference_point(self):
        s = State(t=0.0, q=[1.0, 1.0], qdot=[0.0, 0.0])
        f = fields_at(UNIT, s, (0.0, 0.0), ModelKind.TWO_D)
        assert f.n == pytest.approx(1.0, rel=1e-15)
        assert f.T == pytest.approx(1.0, rel=1e-15)
        assert f.v.tolist() == [0.0, 0.0]
        assert f.p == f.n * f.T and f.eps == f.n * f.T

    def test_2d_temperature_scaling(self):
        s = State(t=0.0, q=[2.0, 1.0], qdot=[0.0, 0.0])
        f = fields_at(UNIT, s, (0.3, -0.2), ModelKind.TWO_D)
        assert f.T == pytest.approx(0.5, rel=1e-15)

    def test_1d_temperature_scaling(self):
        params = PhysicalParams(n0=2.0, T0=3.0, X0=1.5, m=1.0)
        s = State(t=0.0, q=[3.0], qdot=[0.0])
        f = fields_at(params, s, (0.0,), ModelKind.ONE_D)
        assert f.T == pytest.approx(3.0 / 4.0, rel=1e-15)
        assert f.eps == pytest.approx(0.5 * f.n * f.T, rel=1e-15)

    def test_velocity_field_is_linear(self):
        s = State(t=0.0, q=[2.0, 1.0], qdot=[0.5, -0.3], )
        f = fields_at(UNIT, s, (1.0, 2.0), ModelKind.TWO_D)
        assert f.v == pytest.approx([0.25, -0.6], rel=1e-15)

    def test_state_equations_hold_pointwise(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            s = State(t=0.0, q=rng.uniform(0.5, 3.0, 2), qdot=rng.uniform(-1, 1, 2))
            pt = rng.uniform(-2, 2, 2)
            f = fields_at(UNIT, s, pt, ModelKind.TWO_D)
            assert f.p == f.n * f.T
            assert f.eps == f.n * f.T

    def test_elliptic_is_3d_with_z_equal_x(self):
        # the elliptic profile has three spatial axes, the third carrying X
        params = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, Z0=0.8, m=1.5)
        rng = np.random.default_rng(18)
        for _ in range(20):
            (X, Y), (Xd, Yd) = rng.uniform(0.5, 3.0, 2), rng.uniform(-1, 1, 2)
            pt = rng.uniform(-2, 2, 3)
            ell = fields_at(params, State(t=0.0, q=[X, Y], qdot=[Xd, Yd]), pt,
                            ModelKind.ELLIPTIC_3D)
            full = fields_at(params, State(t=0.0, q=[X, Y, X], qdot=[Xd, Yd, Xd]),
                             pt, ModelKind.THREE_D)
            assert ell.n == pytest.approx(full.n, rel=1e-14)
            assert ell.T == pytest.approx(full.T, rel=1e-14)
            assert ell.v == pytest.approx(full.v, rel=1e-14)
            assert ell.eps == pytest.approx(1.5 * ell.n * ell.T, rel=1e-15)
        with pytest.raises(DomainError):
            fields_at(params, State(t=0.0, q=[1, 1], qdot=[0, 0]), (0, 0),
                      ModelKind.ELLIPTIC_3D)


class TestPdeResiduals:
    def test_exact_1d_trajectory(self):
        report = stencil_residuals(UNIT, exact_1d_trajectory(dt=4e-4))
        assert report.max_abs <= 1e-6

    def test_exact_2d_trajectory(self):
        report = stencil_residuals(UNIT, exact_2d_trajectory())
        assert report.max_abs <= 1e-5

    def test_perturbed_trajectory_breaks_momentum_only(self):
        traj = exact_2d_trajectory()
        warped = Trajectory(kind=traj.kind, times=traj.times,
                            qs=traj.qs * [1.01, 1.0],
                            qdots=traj.qdots * [1.01, 1.0])
        report = stencil_residuals(UNIT, warped)
        # kinematically consistent rescaling: continuity/energy still hold
        assert np.max(np.abs(report.continuity)) <= 1e-5
        assert np.max(np.abs(report.energy)) <= 1e-5
        assert np.max(report.momentum) > 1e-3

    def test_origin_probe_momentum_vanishes(self):
        report = stencil_residuals(UNIT, exact_2d_trajectory(t_end=0.5))
        [origin] = np.flatnonzero(~report.probes.any(axis=1))
        assert np.max(report.momentum[:, origin]) == 0.0

    def test_dimensional_parameters(self):
        # nontrivial length/time scalings: the dimensional fields must still
        # satisfy the dimensional equations
        params = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, m=1.5)
        report = stencil_residuals(params, exact_2d_trajectory())
        assert report.max_abs <= 1e-5

    @pytest.mark.parametrize("params", [UNIT3, PARAMS3], ids=["unit", "scaled"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_sees_a_force_off_by_1e_9(self, kind, params):
        # the bound of verify's pde_residual_max is 1e-12
        traj = hydro_checks_trajectory(kind)
        force = accel(traj.qs, kind)
        exact = pde_residuals(params, traj.qs, traj.qdots, force, kind)
        assert exact.max_abs <= 1e-15
        off = pde_residuals(params, traj.qs, traj.qdots, force * (1.0 + 1e-9), kind)
        assert np.max(off.momentum) > 1e-10
        assert np.max(off.continuity) <= 1e-15 and np.max(off.energy) <= 1e-15

    def test_rejects_mismatched_states(self):
        traj = hydro_checks_trajectory(ModelKind.TWO_D)
        with pytest.raises(DomainError):
            pde_residuals(UNIT, traj.qs, traj.qdots[1:], accel(traj.qs, traj.kind), traj.kind)
        with pytest.raises(DomainError):
            pde_residuals(UNIT, -traj.qs, traj.qdots, accel(traj.qs, traj.kind), traj.kind)

    @pytest.mark.parametrize("name,value,refusal", [
        ("qs", math.inf, "variances"), ("qs", math.nan, "variances"),
        ("qdots", math.nan, "rates"), ("qdds", math.nan, "accelerations")])
    def test_refuses_a_non_finite_input(self, name, value, refusal):
        # its residuals would be NaN, which max_abs would read as 0
        traj = hydro_checks_trajectory(ModelKind.TWO_D)
        inputs = {"qs": traj.qs.copy(), "qdots": traj.qdots.copy(),
                  "qdds": accel(traj.qs, traj.kind)}
        inputs[name][3, 1] = value
        with pytest.raises(DomainError, match=refusal):
            pde_residuals(UNIT, kind=traj.kind, **inputs)

    def test_max_abs_keeps_a_nan_of_any_law(self):
        # a rate of 1e160 overflows rate ** 2, so every momentum residual is
        # NaN while continuity and energy stay finite: max_abs is NaN, and
        # verify's pde_residual_max fails, wherever the NaN sits
        qs = np.array([[1.0, 1.3]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = pde_residuals(UNIT, qs, np.array([[1e160, 0.3]]),
                                   1.5 * accel(qs, ModelKind.TWO_D), ModelKind.TWO_D)
        assert np.isnan(report.momentum).all() and not np.isnan(report.continuity).any()
        finite = np.zeros((1, 3))
        for laws in ([report.continuity, report.momentum, report.energy],
                     [finite, np.array([[0.0, np.nan, 0.0]]), finite],
                     [finite, finite, np.array([[np.nan, 0.0, 0.0]])]):
            got = PdeResidualReport(report.probes, *laws).max_abs
            assert math.isnan(got)
            assert not verification._result("pde_residual_max", got, 1e-12).passed

    @pytest.mark.parametrize("params", [UNIT3, PARAMS3], ids=["unit", "scaled"])
    @pytest.mark.parametrize("kind", [ModelKind.THREE_D, ModelKind.ELLIPTIC_3D])
    def test_three_axis_models_close(self, kind, params):
        traj = integrate(default_initial_state(kind), kind,
                         IntegratorConfig(t_end=0.5, sample_interval=5e-4))
        report = stencil_residuals(params, traj)
        assert report.probes.shape == (125, 3)
        assert report.max_abs <= 1e-5
        stretch = np.ones(kind.dim)
        stretch[0] = 1.01
        warped = Trajectory(kind=kind, times=traj.times, qs=traj.qs * stretch,
                            qdots=traj.qdots * stretch)
        assert np.max(stencil_residuals(params, warped).momentum) > 1e-3

    @pytest.mark.parametrize("params", [UNIT3, PARAMS3], ids=["unit", "scaled"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_matches_a_rebuild_from_fields_at(self, kind, params):
        # At x = p Q, each equation's terms from the fields at the state,
        # the Gaussian's spatial derivatives grad n = -n x / Q^2 and
        # d_a v_a = rate_a, and time derivatives by the chain rule:
        # dn/dt = n (p^2 - 1) . rate, dT/dt = -(2/D) T sum(rate),
        # dv/dt = x (Qdd/Q - rate^2).  A force off by 1e-3 makes the
        # momentum residual non-zero.
        traj = hydro_checks_trajectory(kind)
        qdds = accel(traj.qs, kind) * (1.0 + 1e-3)
        report = pde_residuals(params, traj.qs, traj.qdots, qdds, kind)
        length, time_scale = reference_scales(params, kind)
        D, axes, m = kind.spatial_dim, list(kind.axes), params.m
        probes = report.probes
        picks = sorted({0, 1, len(probes) // 2, len(probes) // 3, len(probes) - 1})

        def relative(terms):
            return abs(sum(np.sum(t) for t in terms)) / sum(np.sum(np.abs(t)) for t in terms)

        for i in (0, 1, len(traj) // 2, len(traj) - 1):
            s = dimensionalize(params, sample_state(traj, i), kind)
            Q, rate = s.q[axes], s.qdot[axes] / s.q[axes]
            Qdd = qdds[i][axes] * length / time_scale ** 2
            for k in picks:
                x = probes[k] * Q
                f = fields_at(params, s, x, kind)
                grad_n = -f.n * x / Q ** 2
                dn_dt = [f.n * probes[k] ** 2 * rate, -f.n * rate]
                div_nv = [grad_n * f.v, f.n * rate]
                deps_dt = [D / 2 * f.T * t for t in dn_dt] + [-f.eps * 2 / D * rate]
                div_eps_v = [D / 2 * f.T * t for t in div_nv]
                momentum = [np.array([x * Qdd / Q, -x * rate ** 2, rate * f.v,
                                      f.T * grad_n / (m * f.n)])[:, a] for a in range(D)]
                expected = max(relative(terms) if np.any(terms) else 0.0
                               for terms in momentum)
                assert report.continuity[i, k] == pytest.approx(
                    relative(dn_dt + div_nv), rel=0, abs=1e-10)
                assert report.energy[i, k] == pytest.approx(
                    relative(deps_dt + div_eps_v + [f.p * rate]), rel=0, abs=1e-10)
                assert report.momentum[i, k] == pytest.approx(expected, rel=1e-10, abs=1e-15)
                assert report.continuity[i, k] <= 1e-14 and report.energy[i, k] <= 1e-14
        assert report.max_abs >= 1e-4


class TestTotalEnergy:
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_matches_the_tensor_product_sum(self, kind):
        # the closed-form moments against a brute-force 32-node rule
        params = PhysicalParams(n0=1.4, T0=2.2, X0=0.9, Y0=1.6, Z0=1.3, m=0.8)
        rng = np.random.default_rng(19)
        for _ in range(5):
            s = State(t=0.0, q=rng.uniform(0.3, 3.0, kind.dim),
                      qdot=rng.uniform(-2.0, 2.0, kind.dim))
            assert total_energy(params, s, kind) == pytest.approx(
                tensor_product_sum(params, s, kind, 32, density_only=False), rel=1e-14)
            assert moment_values(params, s.q, s.qdot, kind)[0] == pytest.approx(
                tensor_product_sum(params, s, kind, 32, density_only=True), rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(list(ModelKind)), data=st.data())
    def test_batch_matches_each_state(self, kind, data):
        # bit-equal: total_energy is the batch form on a row of one
        _, qs, qdots, states = draw_states(data, kind)
        _, energy = moment_values(PARAMS3, qs, qdots, kind)
        assert energy.tolist() == [total_energy(PARAMS3, s, kind) for s in states]

    def test_2d_thermal_reference_value(self):
        params = PhysicalParams(n0=2.0, T0=3.0, X0=1.5, Y0=0.7, m=1.1)
        s = State(t=0.0, q=[1.5, 0.7], qdot=[0.0, 0.0])
        # Gaussian moments: E = 2 pi n0 X0 Y0 T0 * Hbar with Hbar = 1 here
        expected = 2.0 * math.pi * 2.0 * 1.5 * 0.7 * 3.0
        assert total_energy(params, s, ModelKind.TWO_D) == pytest.approx(
            expected, rel=1e-12)

    def test_constant_along_1d_solution(self):
        params = PhysicalParams(n0=1.2, T0=2.0, X0=0.8, m=1.7)
        values = []
        for t in (0.0, 1.0, 5.0):
            X, Xd = one_d_solution(0.5, 0.0, t)
            bar = State(t=t, q=[float(X)], qdot=[float(Xd)])
            dim = dimensionalize(params, bar, ModelKind.ONE_D)
            values.append(total_energy(params, dim, ModelKind.ONE_D))
        spread = (max(values) - min(values)) / abs(values[0])
        assert spread <= 1e-8

    @pytest.mark.parametrize("kind,closed_form", [
        (ModelKind.TWO_D, lambda p: 2.0 * math.pi * p.n0 * p.X0 * p.Y0 * p.T0),
        (ModelKind.ONE_D, lambda p: math.sqrt(2.0 * math.pi) * p.n0 * p.X0 * p.T0),
        (ModelKind.THREE_D,
         lambda p: (2.0 * math.pi) ** 1.5 * p.n0 * p.X0 * p.Y0 * p.Z0 * p.T0),
        (ModelKind.ELLIPTIC_3D,
         lambda p: (2.0 * math.pi) ** 1.5 * p.n0 * p.X0 ** 2 * p.Y0 * p.T0),
    ])
    def test_proportional_to_dimensionless_energy(self, kind, closed_form):
        params = PhysicalParams(n0=1.4, T0=2.2, X0=0.9, Y0=1.6, Z0=1.3, m=0.8)
        rng = np.random.default_rng(17)
        ratios = []
        for _ in range(10):
            bar = State(t=0.0, q=rng.uniform(0.5, 2.0, kind.dim),
                        qdot=rng.uniform(-1, 1, kind.dim))
            dim = dimensionalize(params, bar, kind)
            ratios.append(total_energy(params, dim, kind)
                          / energies(bar, kind).hamiltonian)
        ratios = np.array(ratios)
        assert np.std(ratios) / np.mean(ratios) <= 1e-8
        assert np.mean(ratios) == pytest.approx(closed_form(params), rel=1e-10)

    @pytest.mark.parametrize("kind", [ModelKind.THREE_D, ModelKind.ELLIPTIC_3D])
    def test_three_axis_unit_ratio(self, kind):
        s = default_initial_state(kind)
        ratio = total_energy(UNIT3, s, kind) / energies(s, kind).hamiltonian
        assert ratio == pytest.approx((2.0 * math.pi) ** 1.5, rel=1e-12)
        assert ratio == pytest.approx(15.749610, rel=1e-7)


class TestParticleNumber:
    def test_time_independent_along_trajectory(self):
        params = PhysicalParams(n0=0.7, T0=1.1, X0=1.2, Y0=0.9, m=1.3)
        s = State(t=0.0, q=[1.0, 1.2], qdot=[-0.2, 0.4])
        traj = integrate(s, ModelKind.TWO_D,
                         IntegratorConfig(t_end=5.0, sample_interval=1.0))
        states = [dimensionalize(params, sample_state(traj, i), ModelKind.TWO_D)
                  for i in range(len(traj))]
        values = [moment_values(params, s.q, s.qdot, ModelKind.TWO_D)[0] for s in states]
        spread = (max(values) - min(values)) / values[0]
        assert spread <= 1e-8
        assert values[0] == pytest.approx(2 * math.pi * 0.7 * 1.2 * 0.9, rel=1e-12)

    def test_1d_value(self):
        params = PhysicalParams(n0=2.0, T0=1.0, X0=1.5, m=1.0)
        s = State(t=0.0, q=[2.2], qdot=[0.3])
        assert moment_values(params, s.q, s.qdot, ModelKind.ONE_D)[0] == pytest.approx(
            math.sqrt(2 * math.pi) * 2.0 * 1.5, rel=1e-12)

    @pytest.mark.parametrize("kind,variances", [
        (ModelKind.THREE_D, lambda p: p.X0 * p.Y0 * p.Z0),
        (ModelKind.ELLIPTIC_3D, lambda p: p.X0 ** 2 * p.Y0),
    ])
    def test_three_axis_value(self, kind, variances):
        s = dimensionalize(PARAMS3, default_initial_state(kind), kind)
        assert moment_values(PARAMS3, s.q, s.qdot, kind)[0] == pytest.approx(
            (2 * math.pi) ** 1.5 * PARAMS3.n0 * variances(PARAMS3), rel=1e-12)
