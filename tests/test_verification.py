import itertools
import logging
import math

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from fireball import (DomainError, IntegratorConfig, PhysicalParams, Trajectory, dynamics,
                      invariants, pde_residuals, symmetry, verification)
from fireball.dynamics import accel
from fireball.models import ModelKind, State
from fireball.symmetry import ode_residual, scaled_trajectory
from fireball.verification import (analytic_checks, default_initial_state,
                                   elliptic_checks, hydro_checks, run_verification,
                                   symmetry_checks)
from batch import reference_run

_SHARED = ["noether_residual_scaling", "noether_residual_time_translation",
           "noether_invariant_match", "energy_invariant_match"]
_SCALING = ["scaling_form_invariance", "generator_near_identity"]
_HYDRO = ["pde_residual_max", "total_energy_drift", "energy_ratio_spread"]
# The checks `fireball verify` reports at default settings, in order.
DEFAULT_CHECKS = {
    ModelKind.ONE_D: ["invariant_drift_H", "invariant_drift_J", "analytic_solution_match",
                      *_SHARED, *_SCALING, *_HYDRO],
    ModelKind.TWO_D: ["invariant_drift_H", "invariant_drift_I", "invariant_drift_J",
                      "analytic_radial_match", *_SHARED, "generator_annihilates_ermakov",
                      "dynamical_symmetry_residual", "dynamical_symmetry_invariant_match",
                      *_SCALING, *_HYDRO],
    ModelKind.THREE_D: ["invariant_drift_C", "invariant_drift_H", "invariant_drift_J",
                        "analytic_radial_match", *_SHARED, *_SCALING, *_HYDRO],
    ModelKind.ELLIPTIC_3D: ["invariant_drift_H", "invariant_drift_I", "invariant_drift_Itilde",
                            "invariant_drift_J", "analytic_radial_match", *_SHARED,
                            *_SCALING, "itilde_twice_ermakov", "polar_cartesian_consistency",
                            "elliptic_polar_naive_coeff_mismatch", *_HYDRO],
}


@pytest.mark.parametrize("kind", list(ModelKind))
def test_default_initial_state_matches_model(kind):
    s = default_initial_state(kind)
    assert s.dim == kind.dim


def test_three_d_suite_passes():
    results = run_verification(ModelKind.THREE_D,
                               IntegratorConfig(t_end=20.0, sample_interval=0.5))
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    names = {r.name for r in results}
    assert "analytic_radial_match" in names
    assert "scaling_form_invariance" in names
    assert {"invariant_drift_H", "invariant_drift_C", "invariant_drift_J"} <= names
    # no planar-only checks for 3d; the hydro closure covers every model
    assert not any("ermakov" in n for n in names)
    assert {"pde_residual_max", "total_energy_drift",
            "energy_ratio_spread"} <= names


def test_drift_tolerance_is_enforced():
    results = run_verification(ModelKind.ONE_D,
                               IntegratorConfig(t_end=10.0, rel_tol=1e-2, sample_interval=0.5),
                               drift_tol=1e-10, do_analytic=False,
                               do_symmetry=False, do_hydro=False)
    assert any(r.name.startswith("invariant_drift") and not r.passed
               for r in results)


@pytest.mark.parametrize("bad", [{"seed": -1}, {"drift_tol": math.nan},
                                 {"drift_tol": 0.0}, {"drift_tol": math.inf}],
                         ids=["seed", "drift_tol_nan", "drift_tol_zero", "drift_tol_inf"])
def test_rejects_bad_seed_and_drift_tol(bad):
    with pytest.raises(DomainError):
        run_verification(ModelKind.ONE_D, IntegratorConfig(t_end=1.0), **bad)


def itilde_check():
    results = elliptic_checks(reference_run(ModelKind.ELLIPTIC_3D), np.random.default_rng(0))
    return next(r for r in results if r.name == "itilde_twice_ermakov")


def test_itilde_check_compares_against_the_polar_form(monkeypatch):
    # Itilde is the radial invariant C = 2 I; the check evaluates the polar
    # form independently, so it sees rounding but not zero, and a 1e-9
    # relative error in the cartesian C fails it
    check = itilde_check()
    assert check.passed and 0.0 < check.value <= 1e-12
    exact = dynamics.declaration

    def perturbed(kind, outputs):
        columns, statements = exact(kind, outputs)
        return columns, (*statements, "C = C * (1.0 + 1e-9)") if "C" in outputs else statements

    monkeypatch.setattr(dynamics, "declaration", perturbed)
    dynamics.evaluator.cache_clear()
    try:
        assert not itilde_check().passed
    finally:
        dynamics.evaluator.cache_clear()


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("t", [0.0, 2.0])
def test_analytic_checks_pass_at_any_start_time(kind, t):
    s = default_initial_state(kind)
    results = analytic_checks(State(t=t, q=s.q, qdot=s.qdot), kind,
                              rel_tol=1e-10, abs_tol=1e-12)
    assert len(results) == 1
    assert all(r.passed and r.value <= 1e-10 for r in results), results


@pytest.mark.parametrize("kind", list(ModelKind))
def test_step_budget(kind, caplog):
    # Every run lands on its grid: 1,436-1,470 accepted steps per model
    with caplog.at_level(logging.DEBUG, logger="fireball.integrate"):
        run_verification(kind, IntegratorConfig(t_end=50.0, sample_interval=0.5))
    accepted = [r.args[0] for r in caplog.records if str(r.msg).startswith("solve_ode:")]
    assert accepted and sum(accepted) <= 2500


@pytest.mark.parametrize("kind", list(ModelKind))
def test_one_reference_run(kind, caplog):
    # the drift run, the analytic run if asked for, and the reference run if
    # a check reads it: 3 runs at the default flags, where each structural
    # check once made its own
    config = IntegratorConfig(t_end=10.0, sample_interval=0.5)
    elliptic = kind is ModelKind.ELLIPTIC_3D
    for do_analytic, do_symmetry, do_hydro in itertools.product([True, False], repeat=3):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fireball.integrate"):
            run_verification(kind, config, do_analytic=do_analytic,
                             do_symmetry=do_symmetry, do_hydro=do_hydro)
        runs = sum(str(r.msg).startswith("solve_ode:") for r in caplog.records)
        assert runs == 1 + do_analytic + (do_symmetry or do_hydro or elliptic)
        assert runs <= 1 + do_analytic + do_symmetry + do_hydro + elliptic


def test_the_checks_read_the_reference_run(monkeypatch):
    seen = []
    monkeypatch.setattr(verification, "hydro_checks", lambda traj, rng: seen.append(traj) or [])
    run_verification(ModelKind.TWO_D, IntegratorConfig(t_end=1.0, sample_interval=0.5))
    (got,), want = seen, reference_run(ModelKind.TWO_D)
    for name in ("times", "qs", "qdots"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_structural_checks_make_no_run(kind, monkeypatch):
    # they read the trajectory they are given
    traj, rng = reference_run(kind), np.random.default_rng(0)

    def refuse(*args, **kwargs):
        raise AssertionError("a check made a run of its own")

    monkeypatch.setattr(verification, "integrate", refuse)
    monkeypatch.setattr(verification, "IntegratorConfig", refuse)
    results = symmetry_checks(traj, rng)
    if kind is ModelKind.ELLIPTIC_3D:
        results += elliptic_checks(traj, rng)
    results += hydro_checks(traj, rng)
    assert results and all(r.passed for r in results)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_state_budget(kind, monkeypatch):
    # the checks evaluate batches of states: 2 States per run, one for each
    # default state integrated, where one State per random state made 46 (98)
    built = []
    post_init = State.__post_init__

    def counting(state):
        built.append(state)
        post_init(state)

    monkeypatch.setattr(State, "__post_init__", counting)
    run_verification(kind, IntegratorConfig(t_end=10.0, sample_interval=0.5))
    assert len(built) <= 5


@pytest.mark.parametrize("kind", list(ModelKind))
def test_default_report_keeps_every_check(kind):
    results = run_verification(kind, IntegratorConfig(t_end=10.0, sample_interval=0.5))
    assert [r.name for r in results] == DEFAULT_CHECKS[kind]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_exact_checks_see_a_force_off_by_1e_9(kind, monkeypatch):
    # the accelerations both identities are given come from verification's
    # accel; off by 1e-9 relative, exactly those two checks fail
    exact = verification.accel
    monkeypatch.setattr(verification, "accel",
                        lambda q, kind: exact(q, kind) * (1.0 + 1e-9))
    traj, rng = reference_run(kind), np.random.default_rng(0)
    results = symmetry_checks(traj, rng) + hydro_checks(traj, rng)
    assert {r.name for r in results if not r.passed} == \
        {"scaling_form_invariance", "pde_residual_max"}


def test_ermakov_check_sees_a_term_that_breaks_scaling(monkeypatch):
    # I (1 + 1e-9 X) is not scale-invariant: X -> beta X moves it by about
    # 1e-9 relative, far above the check's 1e-12
    exact = invariants.ermakov_values
    monkeypatch.setattr(invariants, "ermakov_values", lambda qs, qdots, kind:
                        exact(qs, qdots, kind) * (1.0 + 1e-9 * np.asarray(qs)[..., 0]))
    results = symmetry_checks(reference_run(ModelKind.TWO_D), np.random.default_rng(0))
    check = next(r for r in results if r.name == "generator_annihilates_ermakov")
    assert not check.passed and check.value > 1e-10


def test_a_subnormal_rate_leaves_the_residuals_exact():
    # every continuity and energy term is subnormal, and rounds in absolute
    # steps: such a sum counts as vanishing rather than as a 0.027 residual
    kind = ModelKind.ONE_D
    params = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, Z0=0.7, m=1.5)
    qs = np.array([[0.33203125]])
    for rate in (5e-324, 1e-320, 0.0):
        report = pde_residuals(params, qs, np.array([[rate]]), accel(qs, kind), kind)
        assert report.max_abs <= 1e-12, rate


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(ModelKind)), beta=st.floats(0.5, 5.0), data=st.data())
def test_exact_identities_hold_on_random_states(kind, beta, data):
    # the reduction and the scaling map at verify's 1e-12 bound, with
    # non-unit physical parameters
    def rows(lo, hi):
        return np.array([data.draw(st.lists(st.floats(lo, hi), min_size=kind.dim,
                                            max_size=kind.dim)) for _ in range(4)])

    qs, qdots = rows(0.3, 3.0), rows(-2.0, 2.0)
    params = PhysicalParams(n0=1.3, T0=2.0, X0=0.8, Y0=1.2, Z0=0.7, m=1.5)
    force = accel(qs, kind)
    assert pde_residuals(params, qs, qdots, force, kind).max_abs <= 1e-12
    traj = Trajectory(kind=kind, times=np.arange(4.0), qs=qs, qdots=qdots)
    image = scaled_trajectory(traj, beta)
    assert ode_residual(image, force / beta ** 3) <= 1e-12
    # H has scaling degree -2 and J is invariant under (beta^2 t, beta q, qdot / beta)
    H = invariants.hamiltonian_values(qs, qdots, kind)
    assert np.max(np.abs(invariants.hamiltonian_values(image.qs, image.qdots, kind)
                         * beta ** 2 - H) / H) <= 1e-12
    J = invariants.noether_values(traj.times, qs, qdots, kind)
    # the bound's absolute part: qdot / beta may round at the subnormal
    # scale, 2**-1074, so each image term beta q M (qdot / beta) may move by
    # beta q M of it
    terms = 2.0 * traj.times * H + np.sum(np.abs(qs * kind.weights * qdots), axis=-1)
    floor = np.sum(beta * np.abs(qs) * kind.weights, axis=-1) * 2.0 ** -1074
    assert np.all(np.abs(invariants.noether_values(image.times, image.qs, image.qdots, kind)
                         - J) <= 1e-12 * terms + floor)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_one_force_and_one_lagrangian_on_the_random_states(kind, monkeypatch):
    # one noether_terms call serves every symmetry of the check (2d: the two
    # point symmetries and the three Ermakov tau)
    seen = []

    def counting(name, exact, states):
        def wrapped(*args):
            seen.append((name, np.shape(args[states])))
            return exact(*args)
        return wrapped

    monkeypatch.setattr(symmetry, "accel", counting("accel", symmetry.accel, 0))
    monkeypatch.setattr(symmetry, "evaluate", counting("evaluate", symmetry.evaluate, 2))
    symmetry_checks(reference_run(kind), np.random.default_rng(0))
    assert [call for call in seen if call[1] == (5, kind.dim)] == \
        [("accel", (5, kind.dim)), ("evaluate", (5, kind.dim))]
