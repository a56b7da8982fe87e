import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from fireball import (DomainError, InsufficientDataError, IntegratorConfig,
                      ModelKind, PhysicalParams, State, Trajectory,
                      dimensionalize, energies, fields_at, integrate,
                      one_d_solution, particle_number, pde_residuals,
                      total_energy)
from fireball.verification import DENSE_REL_TOL, default_initial_state

UNIT = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, m=1.0)
UNIT3 = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, Z0=1.0, m=1.0)
PARAMS3 = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, Z0=0.7, m=1.5)


def hydro_checks_trajectory(kind):
    """The dense 1e-3 run behind verify's ``pde_residual_max``."""
    cfg = IntegratorConfig(t_end=2.0, sample_interval=1e-3, rel_tol=DENSE_REL_TOL)
    return integrate(default_initial_state(kind), kind, cfg, dense=True)


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
        report = pde_residuals(UNIT, exact_1d_trajectory(dt=4e-4),
                               probe_points=[[0.0], [1.0], [2.0]])
        assert report.max_abs <= 1e-6

    def test_exact_2d_trajectory(self):
        report = pde_residuals(UNIT, exact_2d_trajectory())
        assert report.max_abs <= 1e-5

    def test_perturbed_trajectory_breaks_momentum_only(self):
        traj = exact_2d_trajectory()
        warped = Trajectory(kind=traj.kind, times=traj.times,
                            qs=traj.qs * [1.01, 1.0],
                            qdots=traj.qdots * [1.01, 1.0])
        report = pde_residuals(UNIT, warped)
        # kinematically consistent rescaling: continuity/energy still hold
        assert np.max(np.abs(report.continuity)) <= 1e-5
        assert np.max(np.abs(report.energy)) <= 1e-5
        assert np.max(report.momentum) > 1e-3

    def test_origin_probe_momentum_vanishes(self):
        report = pde_residuals(UNIT, exact_2d_trajectory(t_end=0.5),
                               probe_points=[[0.0, 0.0]])
        assert np.max(report.momentum) == 0.0

    def test_dimensional_parameters(self):
        # nontrivial length/time scalings: the dimensional fields must still
        # satisfy the dimensional equations
        params = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, m=1.5)
        report = pde_residuals(params, exact_2d_trajectory())
        assert report.max_abs <= 1e-5

    def test_insufficient_samples(self):
        t = exact_1d_trajectory(t_end=1e-3)
        short = Trajectory(kind=t.kind, times=t.times[:2], qs=t.qs[:2],
                           qdots=t.qdots[:2])
        with pytest.raises(InsufficientDataError):
            pde_residuals(UNIT, short)

    def test_requires_uniform_grid(self):
        t = exact_1d_trajectory(t_end=1e-2)
        times = t.times.copy()
        times[1] += 1e-4 * (times[1] - times[0])
        warped = Trajectory(kind=t.kind, times=times, qs=t.qs, qdots=t.qdots)
        with pytest.raises(DomainError):
            pde_residuals(UNIT, warped)

    def test_probe_limit(self):
        with pytest.raises(DomainError):
            pde_residuals(UNIT, exact_1d_trajectory(), probe_points=[[6.0]])

    @pytest.mark.parametrize("params", [UNIT3, PARAMS3], ids=["unit", "scaled"])
    @pytest.mark.parametrize("kind", [ModelKind.THREE_D, ModelKind.ELLIPTIC_3D])
    def test_three_axis_models_close(self, kind, params):
        traj = integrate(default_initial_state(kind), kind,
                         IntegratorConfig(t_end=0.5, sample_interval=5e-4))
        report = pde_residuals(params, traj)
        assert report.probes.shape == (125, 3)
        assert report.max_abs <= 1e-5
        stretch = np.ones(kind.dim)
        stretch[0] = 1.01
        warped = Trajectory(kind=kind, times=traj.times, qs=traj.qs * stretch,
                            qdots=traj.qdots * stretch)
        assert np.max(pde_residuals(params, warped).momentum) > 1e-3


    @pytest.mark.parametrize("params", [UNIT3, PARAMS3], ids=["unit", "scaled"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_matches_a_rebuild_from_fields_at(self, kind, params):
        # At x = p Q_c, the continuity, momentum and energy residuals from the
        # fields at samples c-1, c, c+1: centred time differences, and the
        # Gaussian's spatial derivatives grad n = -n x / Q^2, d_a v_a = rate_a.
        traj = hydro_checks_trajectory(kind)
        report = pde_residuals(params, traj)
        axes = list(kind.axes)
        probes = report.probes
        picks = sorted({0, 1, len(probes) // 2, len(probes) // 3, len(probes) - 1})
        for c in (1, 2, len(traj) // 3, len(traj) - 2):
            before, centre, after = (dimensionalize(params, traj.state(i), kind)
                                     for i in (c - 1, c, c + 1))
            span = after.t - before.t
            Q = centre.q[axes]
            rate = centre.qdot[axes] / Q
            for k in picks:
                x = probes[k] * Q
                f_m, f_c, f_p = (fields_at(params, s, x, kind)
                                 for s in (before, centre, after))
                grad_n = -f_c.n * x / Q ** 2
                div_nv = float(grad_n @ f_c.v) + f_c.n * np.sum(rate)
                continuity = (f_p.n - f_m.n) / span + div_nv
                momentum = np.max(np.abs((f_p.v - f_m.v) / span + rate * f_c.v
                                         + f_c.T * grad_n / (params.m * f_c.n)))
                energy = (f_p.eps - f_m.eps) / span + f_c.eps / f_c.n * div_nv \
                    + f_c.p * np.sum(rate)
                assert report.continuity[c - 1, k] == pytest.approx(continuity, rel=0, abs=1e-10)
                assert report.momentum[c - 1, k] == pytest.approx(momentum, rel=0, abs=1e-10)
                assert report.energy[c - 1, k] == pytest.approx(energy, rel=0, abs=1e-10)


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
            assert particle_number(params, s, kind) == pytest.approx(
                tensor_product_sum(params, s, kind, 32, density_only=True), rel=1e-14)

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
        values = [particle_number(params,
                                  dimensionalize(params, traj.state(i), ModelKind.TWO_D),
                                  ModelKind.TWO_D)
                  for i in range(len(traj))]
        spread = (max(values) - min(values)) / values[0]
        assert spread <= 1e-8
        assert values[0] == pytest.approx(2 * math.pi * 0.7 * 1.2 * 0.9, rel=1e-12)

    def test_1d_value(self):
        params = PhysicalParams(n0=2.0, T0=1.0, X0=1.5, m=1.0)
        s = State(t=0.0, q=[2.2], qdot=[0.3])
        assert particle_number(params, s, ModelKind.ONE_D) == pytest.approx(
            math.sqrt(2 * math.pi) * 2.0 * 1.5, rel=1e-12)

    @pytest.mark.parametrize("kind,variances", [
        (ModelKind.THREE_D, lambda p: p.X0 * p.Y0 * p.Z0),
        (ModelKind.ELLIPTIC_3D, lambda p: p.X0 ** 2 * p.Y0),
    ])
    def test_three_axis_value(self, kind, variances):
        s = dimensionalize(PARAMS3, default_initial_state(kind), kind)
        assert particle_number(PARAMS3, s, kind) == pytest.approx(
            (2 * math.pi) ** 1.5 * PARAMS3.n0 * variances(PARAMS3), rel=1e-12)
