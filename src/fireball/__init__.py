"""Reduced ODE dynamics of expanding Gaussian fireballs.

The hydrodynamics of an ideal, structureless expanding blob with a Gaussian
density profile reduces to low-dimensional ODEs for the profile variances.
This package integrates those systems, evaluates their exact invariants and
closed-form solutions, verifies the symmetry structure behind the
conservation laws, and checks the reduction against the original fluid
equations.

``import fireball`` loads what every run needs; ``analytic``, ``symmetry``
and ``hydro`` load on first use of one of their names, or when imported.
"""

import importlib

from .errors import (ConfigError, DomainError, FireballError, IntegrationError,
                     NoMotionError, SingularityError, UnsupportedModelError)
from .models import ModelKind, PhysicalParams, State, reference_scales, state_from_components
from .dynamics import EnergyPair, energies
from .integrate import IntegratorConfig, Trajectory, integrate
from .invariants import InvariantReport, invariant_report, noether_invariant

# The exports of the modules loaded on first use, each with its module.
_LAZY = {name: f"{__name__}.{module}" for module, names in {
    "analytic": ("AngularSolution", "RadialSolution", "angular_quadrature", "one_d_solution",
                 "radial", "radial_3d", "time_reparam"),
    "symmetry": ("PointSymmetry", "noether_condition_residual", "ode_residual",
                 "scaled_trajectory", "scaling_symmetry", "time_translation"),
    "hydro": ("pde_residuals", "total_energy"),
}.items() for name in names}
# The classes and functions imported above, then those.
__all__ = [name for name, value in globals().items() if callable(value)] + list(_LAZY)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(importlib.import_module(_LAZY[name]), name))


def __dir__():
    return sorted({*globals(), *_LAZY})
