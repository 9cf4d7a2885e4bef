"""Finite-element solver for shear-thinning electrokinetic flow.

A structure-preserving, linear, decoupled, second-order time integrator for
an incompressible Carreau fluid coupled to ion transport with finite-size
(steric) interactions, plus the verification harness that checks its
convergence order, energy decay, mass conservation and positivity.
"""

__version__ = "0.1.0"
