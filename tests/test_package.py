"""The names ``fireball`` exports, checked in fresh interpreters, since the
package loads some of their modules only on first use."""

import json
import os
import subprocess
import sys

import fireball

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "errors": ("ConfigError", "DomainError", "FireballError", "IntegrationError",
               "NoMotionError", "SingularityError", "UnsupportedModelError"),
    "models": ("ModelKind", "PhysicalParams", "PolarState", "State", "dimensionalize",
               "nondimensionalize", "reference_scales", "state_from_components",
               "to_cartesian", "to_polar"),
    "dynamics": ("EnergyPair", "energies"),
    "integrate": ("IntegratorConfig", "Trajectory", "integrate"),
    "invariants": ("GeneralErmakovSpec", "InvariantReport", "ermakov_invariant",
                   "general_ermakov_invariant", "invariant_report", "itilde_invariant",
                   "noether_invariant", "pinney_coupling"),
    "analytic": ("AngularSolution", "RadialSolution", "angular_quadrature", "one_d_solution",
                 "polar_invariants", "radial", "radial_3d", "superposition_1d",
                 "time_reparam"),
    "symmetry": ("PointSymmetry", "dynamical_symmetry_check", "noether_condition_residual",
                 "noether_invariant_from", "ode_residual", "scaled_trajectory",
                 "scaling_symmetry", "time_translation"),
    "hydro": ("FluidFields", "fields_at", "particle_number", "pde_residuals", "total_energy"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code):
    """The JSON that ``code`` prints in a fresh interpreter that imports the
    package under test; ``exports`` holds :data:`EXPORTS` there."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\nexports = json.loads(sys.argv[1])\n{code}",
         json.dumps(EXPORTS)], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": os.path.dirname(os.path.dirname(fireball.__file__))})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_export_is_listed_and_resolves_to_its_module():
    got = fresh("import importlib, fireball\n"
                "listed = dir(fireball)\n"
                "wrong = [name for module, names in exports.items() for name in names\n"
                "         if getattr(fireball, name) is not\n"
                "         getattr(importlib.import_module('fireball.' + module), name)]\n"
                "print(json.dumps([sorted(listed), sorted(fireball.__all__), wrong]))")
    listed, exported, wrong = got
    assert set(NAMES) <= set(listed)
    assert exported == NAMES
    assert wrong == []


def test_an_unknown_name_raises_attribute_error():
    got = fresh("import fireball\n"
                "try:\n"
                "    fireball.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(json.dumps([str(exc), hasattr(fireball, 'no_such_name')]))")
    assert got == ["module 'fireball' has no attribute 'no_such_name'", False]


def test_importing_the_modules_leaves_integrate_the_function():
    # the submodule fireball.integrate must not rebind the package's
    # integrate, which perfbench and users call
    got = fresh("import types, fireball\n"
                "import fireball.analytic, fireball.symmetry, fireball.hydro\n"
                "import fireball.verification\n"
                "print(json.dumps([isinstance(fireball.integrate, types.FunctionType),\n"
                "                  fireball.integrate.__module__,\n"
                "                  fireball.radial is fireball.analytic.radial]))")
    assert got == [True, "fireball.integrate", True]
