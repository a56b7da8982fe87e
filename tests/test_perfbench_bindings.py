"""The benchmark under perfbench/ binds fireball functions by module and
name.  A rename must fail here, not in the middle of a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,module,attr", load("spans").LAYERS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_layer_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_workloads_import():
    assert load("workloads").KINDS
