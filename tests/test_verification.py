import pytest

from fireball.models import ModelKind
from fireball.verification import default_initial_state, run_verification


@pytest.mark.parametrize("kind", list(ModelKind))
def test_default_initial_state_matches_model(kind):
    s = default_initial_state(kind)
    assert s.dim == kind.dim


def test_three_d_suite_passes():
    results = run_verification(ModelKind.THREE_D, t_end=20.0)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    names = {r.name for r in results}
    assert "analytic_radial_match" in names
    assert "scaling_form_invariance" in names
    # no planar-only checks for 3d; the hydro closure covers every model
    assert not any("ermakov" in n for n in names)
    assert {"pde_residual_max", "total_energy_drift",
            "energy_ratio_spread"} <= names


def test_drift_tolerance_is_enforced():
    results = run_verification(ModelKind.ONE_D, t_end=10.0, rel_tol=1e-2,
                               drift_tol=1e-10, do_analytic=False,
                               do_symmetry=False, do_hydro=False)
    assert any(r.name.startswith("invariant_drift") and not r.passed
               for r in results)
