"""Finite-element solver for shear-thinning electrokinetic flow.

A structure-preserving, linear, decoupled, second-order time integrator for
an incompressible Carreau fluid coupled to ion transport with finite-size
(steric) interactions, plus the verification harness that checks its
convergence order, energy decay, mass conservation and positivity.
"""

from .errors import (CompatibilityError, ConfigError, NonFiniteError,
                     PositivityError, SingularMatrixError, SolverError,
                     StructuralViolation)
from .fem import (Field, QuadRule, RefElement, ZeroMeanSolver, assemble,
                  assemble_vector, error_norm_l2, interpolate, quad_rule)
from .mesh import DofMap, Mesh, build_rect_mesh, dof_map
from .model import (DiagnosticsRecord, Params, State, carreau_viscosity,
                    discrete_energy, energy_spnp, min_concentration,
                    species_mass)
from .scheme import SourcePack, Stepper
from .sparse import SolveReport, factorize

__version__ = "0.1.0"
