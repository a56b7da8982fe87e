"""The names ``fireball`` exports, checked in fresh interpreters, since the
package loads some of their modules only on first use."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import fireball

from conftest import fresh_env

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "errors": ("ConfigError", "DomainError", "FireballError", "IntegrationError",
               "NoMotionError", "SingularityError", "UnsupportedModelError"),
    "models": ("ModelKind", "PhysicalParams", "State", "reference_scales",
               "state_from_components"),
    "dynamics": ("EnergyPair", "energies"),
    "integrate": ("IntegratorConfig", "Trajectory", "integrate"),
    "invariants": ("InvariantReport", "invariant_report", "noether_invariant"),
    "analytic": ("AngularSolution", "RadialSolution", "angular_quadrature", "one_d_solution",
                 "radial", "radial_3d", "time_reparam"),
    "symmetry": ("PointSymmetry", "noether_condition_residual", "ode_residual",
                 "scaled_trajectory", "scaling_symmetry", "time_translation"),
    "hydro": ("pde_residuals", "total_energy"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code):
    """The JSON that ``code`` prints in a fresh interpreter that imports the
    package under test; ``exports`` holds :data:`EXPORTS` there."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\nexports = json.loads(sys.argv[1])\n{code}",
         json.dumps(EXPORTS)], capture_output=True, text=True, timeout=60, env=fresh_env())
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


def test_every_module_level_import_is_read():
    # a module that stops using a name must stop importing it; the package's
    # __init__ imports to export
    unused = []
    for path in sorted(Path(fireball.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.partition(".")[0]) not in read]
    assert unused == []


def test_no_module_imports_itself_through_others():
    # every intra-package import (``from .x import``, ``from . import x``),
    # at module level and inside functions, must leave the graph acyclic: a
    # cycle makes import order matter and sends functions back through late
    # imports
    package = Path(fireball.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    edges = {name: {target for node in ast.walk(ast.parse((package / f"{name}.py").read_text()))
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for target in ([node.module] if node.module
                                   else [alias.name for alias in node.names])
                    if target in modules}
             for name in modules}
    state, cycles = {}, []

    def visit(module, path):
        state[module] = "open"
        for target in sorted(edges[module]):
            if state.get(target) == "open":
                cycles.append(path[path.index(target):] + [target])
            elif target not in state:
                visit(target, path + [target])
        state[module] = "done"

    for module in sorted(edges):
        if module not in state:
            visit(module, [module])
    assert cycles == []
