"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS`` line (visible with ``-s``)
after its assertions; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from fireball import (AngularSolution, IntegratorConfig, ModelKind,
                      PhysicalParams, RadialSolution, State, Trajectory,
                      dimensionalize, dynamical_symmetry_check,
                      energies, ermakov_invariant,
                      general_ermakov_invariant, integrate, invariant_report,
                      itilde_invariant, noether_condition_residual,
                      noether_invariant, noether_invariant_from, ode_residual,
                      one_d_solution, pde_residuals, pinney_coupling,
                      polar_invariants, radial, radial_3d, scaled_trajectory,
                      scaling_symmetry, superposition_1d, time_translation,
                      to_polar, total_energy)
from fireball.invariants import ermakov_values
from batch import sample_state
from stencil import stencil_accelerations

UNIT_PARAMS = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, m=1.0)


def announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_planar_states(rng, n, t_range=(0.0, 0.0)):
    ts = rng.uniform(*t_range, size=n)
    qs = rng.uniform(0.5, 2.0, size=(n, 2))
    qdots = rng.uniform(-1.0, 1.0, size=(n, 2))
    return ts, qs, qdots


def test_criterion_1_one_d_analytic_reproduction():
    cfg = IntegratorConfig(t_end=20.0, sample_interval=0.05,
                           rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(State(t=0.0, q=[1.0], qdot=[0.0]), ModelKind.ONE_D, cfg)
    X_exact, _ = one_d_solution(0.5, 0.0, traj.times)
    worst = float(np.max(np.abs(traj.qs[:, 0] - X_exact)))
    announce(1, worst <= 1e-8,
             f"1d closed form reproduced over [0, 20], max abs error {worst:.3e}")


def test_criterion_2_two_d_invariant_conservation():
    rng = np.random.default_rng(2024)
    cfg = IntegratorConfig(t_end=100.0, sample_interval=0.5,
                           rel_tol=1e-10, abs_tol=1e-12)
    worst = {"H": 0.0, "I": 0.0, "J": 0.0}
    for _ in range(20):
        s = State(t=0.0, q=rng.uniform(0.5, 2.0, 2), qdot=rng.uniform(-1.0, 1.0, 2))
        report = invariant_report(integrate(s, ModelKind.TWO_D, cfg))
        for name in worst:
            worst[name] = max(worst[name], report.drift[name])
    ok = all(v <= 1e-8 for v in worst.values())
    announce(2, ok, "20 random 2d runs over [0, 100], max drifts "
             + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_3_invariant_lower_bounds():
    rng = np.random.default_rng(3)
    n = 100_000
    _, qs, qdots = random_planar_states(rng, n)
    i2d = ermakov_values(qs, qdots, ModelKind.TWO_D)
    iell = ermakov_values(qs, qdots, ModelKind.ELLIPTIC_3D)
    violations = int(np.sum(i2d < 2.0)) + int(np.sum(iell < 2.25))
    # scalar API spot check on a slice
    for k in range(0, n, n // 1000):
        s = State(t=0.0, q=qs[k], qdot=qdots[k])
        violations += ermakov_invariant(s, ModelKind.TWO_D) < 2.0
        violations += ermakov_invariant(s, ModelKind.ELLIPTIC_3D) < 2.25
    # and along integrated trajectories
    cfg = IntegratorConfig(t_end=50.0, sample_interval=0.1)
    for kind, bound in ((ModelKind.TWO_D, 2.0), (ModelKind.ELLIPTIC_3D, 2.25)):
        for _ in range(3):
            s = State(t=0.0, q=rng.uniform(0.5, 2.0, 2),
                      qdot=rng.uniform(-1.0, 1.0, 2))
            traj = integrate(s, kind, cfg)
            along = ermakov_values(traj.qs, traj.qdots, kind)
            violations += int(np.sum(along < bound))
    announce(3, violations == 0,
             f"I >= 2 (2d) and I >= 9/4 (elliptic) on {n} random states "
             f"and 6 trajectories, {violations} violations")


def test_criterion_4_radial_law_and_ballistic_slope():
    rng = np.random.default_rng(4)
    cfg = IntegratorConfig(t_end=10.0, sample_interval=0.01,
                           rel_tol=1e-12, abs_tol=1e-14)
    worst = 0.0
    slope_err = 0.0
    for _ in range(5):
        s = State(t=0.0, q=rng.uniform(0.5, 2.0, 2), qdot=rng.uniform(-1.0, 1.0, 2))
        sol = RadialSolution.from_state(s, ModelKind.TWO_D)
        traj = integrate(s, ModelKind.TWO_D, cfg)
        r_exact, _ = radial(sol, traj.times)
        r_num = np.linalg.norm(traj.qs, axis=1)
        worst = max(worst, float(np.max(np.abs(r_num - r_exact) / r_exact)))
        # slope measured 1e3 time units into the expansion (past t0, where
        # the offset of closest approach no longer biases r/t)
        r_far, _ = radial(sol, sol.t0 + 1e3)
        slope = float(r_far) / 1e3
        H = energies(s, ModelKind.TWO_D).hamiltonian
        slope_err = max(slope_err,
                        abs(slope - math.sqrt(2 * H)) / math.sqrt(2 * H))
    ok = worst <= 1e-6 and slope_err <= 1e-3
    announce(4, ok, f"radial law matched to {worst:.2e} over [0, 10]; "
             f"ballistic slope off by {slope_err:.2e} at t=1e3")


def test_criterion_5_three_d_quadratic_radius():
    rng = np.random.default_rng(5)
    cfg = IntegratorConfig(t_end=10.0, sample_interval=0.01,
                           rel_tol=1e-12, abs_tol=1e-14)
    worst = 0.0
    for _ in range(10):
        s = State(t=0.0, q=rng.uniform(0.5, 2.0, 3), qdot=rng.uniform(-0.8, 0.8, 3))
        H = energies(s, ModelKind.THREE_D).hamiltonian
        J = noether_invariant(s, ModelKind.THREE_D)
        traj = integrate(s, ModelKind.THREE_D, cfg)
        r_exact, _ = radial_3d(H, J, float(np.linalg.norm(s.q)), traj.times)
        r_num = np.linalg.norm(traj.qs, axis=1)
        worst = max(worst, float(np.max(np.abs(r_num - r_exact) / r_exact)))
    announce(5, worst <= 1e-7,
             f"3d quadratic radius law matched to {worst:.2e} on 10 random runs")


def test_criterion_6_elliptic_consistency():
    rng = np.random.default_rng(6)
    kind = ModelKind.ELLIPTIC_3D
    _, qs, qdots = random_planar_states(rng, 1000)
    worst_double = 0.0
    worst_polar = 0.0
    for q, qd in zip(qs, qdots):
        s = State(t=0.0, q=q, qdot=qd)
        itil = itilde_invariant(s)
        worst_double = max(worst_double,
                           abs(itil - 2.0 * ermakov_invariant(s, kind)))
        _, polar_itil = polar_invariants(to_polar(s, kind), kind)
        worst_polar = max(worst_polar, abs(polar_itil - itil))
    # documented coefficient mismatch of the naive 3/2 polar form
    ref = State(t=0.0, q=[1.0, 1.0], qdot=[0.0, 0.0])
    p = to_polar(ref, kind)
    naive = 1.5 * (math.cos(p.phi) ** 2 * math.sin(p.phi)) ** (-2.0 / 3.0)
    mismatch_documented = (abs(naive - 9.0 * 2.0 ** (-5.0 / 3.0)) <= 1e-12
                           and abs(itilde_invariant(ref) - 4.5) <= 1e-12
                           and abs(naive - 4.5) > 1.0)
    ok = worst_double <= 1e-12 and worst_polar <= 1e-10 and mismatch_documented
    announce(6, ok, f"Itilde = 2 I to {worst_double:.1e}; polar vs cartesian "
             f"to {worst_polar:.2e} on 1000 states; naive polar coefficient "
             f"gives {naive:.4f} instead of 4.5")


def test_criterion_7_noether_machinery():
    rng = np.random.default_rng(7)
    scal, ttrans = scaling_symmetry(), time_translation()
    worst_residual = 0.0
    worst_match = 0.0
    for kind in ModelKind:
        for _ in range(5):
            s = State(t=rng.uniform(0, 3), q=rng.uniform(0.5, 2.0, kind.dim),
                      qdot=rng.uniform(-1.0, 1.0, kind.dim))
            for sym in (scal, ttrans):
                worst_residual = max(worst_residual,
                                     abs(noether_condition_residual(sym, kind, s)))
            worst_match = max(
                worst_match,
                abs(noether_invariant_from(scal, kind, s)
                    - noether_invariant(s, kind)),
                abs(noether_invariant_from(ttrans, kind, s)
                    - energies(s, kind).hamiltonian))

    worst_g1i = 0.0
    worst_dyn = 0.0
    taus = [lambda t, q, qd: 0.0, lambda t, q, qd: 1.0,
            lambda t, q, qd: q[0] * qd[1]]
    for _ in range(10):
        s = State(t=rng.uniform(0, 3), q=rng.uniform(0.5, 2.0, 2),
                  qdot=rng.uniform(-1.0, 1.0, 2))
        # G1(I) = 0 in finite form: I is unchanged under the scaling map
        expected = ermakov_invariant(s, ModelKind.TWO_D)
        for beta in (0.5, 2.0, 5.0):
            image = ermakov_values(beta * s.q, s.qdot / beta, ModelKind.TWO_D)
            worst_g1i = max(worst_g1i, abs(image - expected) / expected)
        for tau in taus:
            residual, inv = dynamical_symmetry_check(tau, s)
            worst_dyn = max(worst_dyn, abs(inv - expected))
            assert abs(residual) <= 1e-12
    ok = (worst_residual <= 1e-10 and worst_match <= 1e-12
          and worst_g1i <= 1e-12 and worst_dyn <= 1e-10)
    announce(7, ok, f"Noether residual {worst_residual:.1e}; invariant match "
             f"{worst_match:.1e}; G1(I) {worst_g1i:.1e}; dynamical-symmetry "
             f"invariant match {worst_dyn:.1e}")


def test_criterion_8_scaling_form_invariance():
    worst = 0.0
    for kind in ModelKind:
        initial = State(t=0.0, q=np.full(kind.dim, 1.1),
                        qdot=np.linspace(-0.2, 0.3, kind.dim))
        for beta in (0.5, 2.0, 5.0):
            mapped_dt = 1e-3 * min(1.0, beta ** 2)
            cfg = IntegratorConfig(t_end=4.0 / beta ** 2,
                                   sample_interval=mapped_dt / beta ** 2,
                                   rel_tol=1e-11, abs_tol=1e-13)
            traj = integrate(initial, kind, cfg)
            worst = max(worst, ode_residual(*stencil_accelerations(
                scaled_trajectory(traj, beta))))

    # near-identity expansion against the generator coefficients (2t, q)
    s = State(t=0.0, q=[1.0, 1.2], qdot=[0.1, -0.2])
    traj = integrate(s, ModelKind.TWO_D,
                     IntegratorConfig(t_end=5.0, sample_interval=0.5))
    eps = 1e-6
    mapped = scaled_trajectory(traj, 1.0 + eps)
    near = max(float(np.max(np.abs(mapped.times - traj.times - eps * 2 * traj.times))),
               float(np.max(np.abs(mapped.qs - traj.qs - eps * traj.qs))))
    ok = worst <= 1e-5 and near <= 1e-10
    announce(8, ok, f"scaled trajectories solve the ODEs to {worst:.2e} "
             f"for beta in {{0.5, 2, 5}}; near-identity deviation {near:.1e}")


def test_criterion_9_hydrodynamic_closure():
    times = np.arange(0.0, 2.0 + 1e-12, 5e-4)
    X, Xd = one_d_solution(0.5, 0.0, times)
    traj_1d = Trajectory(kind=ModelKind.ONE_D, times=times, qs=X[:, None],
                         qdots=Xd[:, None])
    traj_2d = Trajectory(kind=ModelKind.TWO_D, times=times,
                         qs=np.column_stack([X, X]),
                         qdots=np.column_stack([Xd, Xd]))
    res_1d, res_2d = (
        pde_residuals(UNIT_PARAMS, inner.qs, inner.qdots, qdds, inner.kind).max_abs
        for inner, qdds in map(stencil_accelerations, (traj_1d, traj_2d)))

    params = PhysicalParams(n0=1.4, T0=2.2, X0=0.9, Y0=1.6, m=0.8)
    drift = 0.0
    rng = np.random.default_rng(9)
    spreads = []
    for kind, make in ((ModelKind.ONE_D, traj_1d), (ModelKind.TWO_D, traj_2d)):
        picks = np.linspace(0, len(make) - 1, 7).astype(int)
        vals = [total_energy(params, dimensionalize(params, sample_state(make, i), kind),
                             kind)
                for i in picks]
        drift = max(drift, (max(vals) - min(vals)) / abs(vals[0]))
        ratios = []
        for _ in range(10):
            bar = State(t=0.0, q=rng.uniform(0.5, 2.0, kind.dim),
                        qdot=rng.uniform(-1.0, 1.0, kind.dim))
            ratios.append(total_energy(params, dimensionalize(params, bar, kind), kind)
                          / energies(bar, kind).hamiltonian)
        spreads.append(float(np.std(ratios) / np.mean(ratios)))
    spread = max(spreads)
    ok = res_1d <= 1e-5 and res_2d <= 1e-5 and drift <= 1e-8 and spread <= 1e-8
    announce(9, ok, f"pde residuals {res_1d:.2e} (1d) / {res_2d:.2e} (2d); "
             f"total energy drift {drift:.1e}; ratio spread {spread:.1e}")


def test_criterion_10_superposition_law():
    rng = np.random.default_rng(10)
    spec = pinney_coupling()
    worst = 0.0
    exact_linear = True
    for _ in range(10):
        inv = rng.uniform(0.1, 5.0)
        t0 = 0.0
        # power-of-two grid: the free motion is exactly linear in fp
        _, _, Y = superposition_1d(inv, t0, np.array([0.0, 1.0, 2.0]))
        exact_linear &= (Y[2] - 2 * Y[1] + Y[0]) == 0.0
        for t in rng.uniform(-3.0, 3.0, 5):
            u, tau, Yv = superposition_1d(inv, t0, t)
            X = math.sqrt((t - t0) ** 2 + 1.0)
            got = general_ermakov_invariant(spec, X, float(Yv), (t - t0) / X,
                                            math.sqrt(2.0 * inv))
            worst = max(worst, abs(got - inv))
    ok = exact_linear and worst <= 1e-12
    announce(10, ok, f"free member exactly linear; substitution returns the "
             f"invariant to {worst:.1e} on 10 random values")
