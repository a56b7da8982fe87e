"""Reduced ODE dynamics of expanding Gaussian fireballs.

The hydrodynamics of an ideal, structureless expanding blob with a Gaussian
density profile reduces to low-dimensional ODEs for the profile variances.
This package integrates those systems, evaluates their exact invariants and
closed-form solutions, verifies the symmetry structure behind the
conservation laws, and checks the reduction against the original fluid
equations.
"""

from .errors import (ConfigError, DomainError, FireballError,
                     InsufficientDataError, IntegrationError, NoMotionError,
                     QuadratureError, SingularityError, UnsupportedModelError)
from .models import (ModelKind, PhysicalParams, PolarState, State,
                     dimensionalize, nondimensionalize, reference_scales,
                     state_from_components, to_cartesian, to_polar)
from .dynamics import EnergyPair, energies, pseudo_potential, rhs
from .integrate import IntegratorConfig, Trajectory, integrate
from .invariants import (GeneralErmakovSpec, InvariantReport,
                         elliptic_coupling, ermakov_invariant,
                         general_ermakov_invariant, invariant_report,
                         itilde_invariant, noether_invariant, pinney_coupling,
                         polar_invariants, two_d_coupling)
from .analytic import (AngularSolution, RadialSolution, angular_quadrature,
                       one_d_solution, radial, radial_3d, superposition_1d,
                       time_reparam)
from .symmetry import (DynamicalSymmetry, PointSymmetry,
                       dynamical_symmetry_check, extended_generator_apply,
                       noether_condition_residual, noether_invariant_from,
                       ode_residual, scaled_trajectory, scaling_symmetry,
                       time_translation)
from .hydro import (FluidFields, fields_at, particle_number, pde_residuals,
                    total_energy)

__version__ = "0.1.0"
