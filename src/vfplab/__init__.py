"""Numerical laboratory for a kinetic mean-field model with friction.

The package studies the evolution of a phase-space density f(t, x, v) under

    df/dt + v df/dx + (F[f] - x) df/dv = gamma * d/dv (v f + df/dv),

where the mean-field force F[f] = -lam * d/dx (K * rho) couples particles
through an interaction kernel K that need not be symmetric.  It provides

* the interacting particle system and its synchronously coupled pairs,
  with the adapted quadratic form that contracts along trajectories,
* a deterministic finite-volume solver for the density itself,
* free energies, relative entropies, and twisted Fisher information,
* closed-form Gaussian references for linear interaction kernels,
* a CLI that runs the standard experiments and writes CSV/JSON artifacts.
"""

from . import errors, functionals, gaussian, model, particles, pde
from .errors import *
from .functionals import *
from .gaussian import *
from .model import *
from .particles import *
from .pde import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, functionals, gaussian, model, particles, pde)
           for name in module.__all__] + ["__version__"]
