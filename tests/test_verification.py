import logging
import math

import pytest

import numpy as np

from fireball import DomainError, IntegratorConfig, invariants
from fireball.models import ModelKind, State
from fireball.verification import (analytic_checks, default_initial_state,
                                   elliptic_checks, run_verification)


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
    results = elliptic_checks(np.random.default_rng(0), rel_tol=1e-10,
                              abs_tol=1e-12)
    return next(r for r in results if r.name == "itilde_twice_ermakov")


def test_itilde_check_compares_against_the_polar_form(monkeypatch):
    # Itilde is the radial invariant C = 2 I; the check evaluates the polar
    # form independently, so it sees rounding but not zero, and a 1e-9
    # relative error in the cartesian C fails it
    check = itilde_check()
    assert check.passed and 0.0 < check.value <= 1e-12
    exact = invariants._radial_invariant
    monkeypatch.setattr(invariants, "_radial_invariant",
                        lambda *args: exact(*args) * (1.0 + 1e-9))
    assert not itilde_check().passed


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
    # The 1e-3 grids of the scaling and hydro checks use dense output; on
    # landing steps the suite takes about 39,300 accepted steps per model,
    # with dense output 1,697-1,978.
    with caplog.at_level(logging.DEBUG, logger="fireball.integrate"):
        run_verification(kind, IntegratorConfig(t_end=50.0, sample_interval=0.5))
    accepted = [r.args[0] for r in caplog.records if str(r.msg).startswith("solve_ode:")]
    assert accepted and sum(accepted) <= 2500
