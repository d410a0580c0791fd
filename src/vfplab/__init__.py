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

from .errors import (ConfigurationError, DivergenceError, NonConvergenceError,
                     SchemeError, UnconfinedError, VfpError)
from .functionals import (classical_free_energy, entropy, fisher_information,
                          l1_distance, local_equilibrium, quadratic_free_energy,
                          relative_entropy, sample_from_grid, w2_empirical, w2_grid)
from .gaussian import (GaussianState, GibbsN, bures_w2, free_energy_particle_limit,
                       free_energy_quadratic, gaussian_kl, gibbs_measure_N,
                       moment_flow, stationary_gaussian)
from .model import (CouplingConstants, InteractionKernel, ModelParams,
                    builtin_kernel, coupling_constants, kernel_sum, mean_field_force,
                    norm_equivalence_ratio, smallness_holds, smallness_threshold)
from .particles import (ContractionReport, CoupledPair, ParticleState, SimConfig,
                        contraction_experiment, coupled_step, direct_pairwise_force,
                        euclidean_norm_sq, force_jacobian_norm_bound_check,
                        modified_norm_sq, noise_for_step, pairwise_force, simulate,
                        step)
from .pde import (GridConfig, PhaseGrid, cfl_bound, gaussian_grid, grid_from_density,
                  grid_to_binary, grid_to_csv, run_vfp, stationary_fixed_point,
                  vfp_step, x_marginal)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DivergenceError", "NonConvergenceError", "SchemeError",
    "UnconfinedError", "VfpError",
    "classical_free_energy", "entropy", "fisher_information", "l1_distance",
    "local_equilibrium", "quadratic_free_energy", "relative_entropy",
    "sample_from_grid", "w2_empirical", "w2_grid",
    "GaussianState", "GibbsN", "bures_w2", "free_energy_particle_limit",
    "free_energy_quadratic", "gaussian_kl", "gibbs_measure_N", "moment_flow",
    "stationary_gaussian",
    "CouplingConstants", "InteractionKernel", "ModelParams", "builtin_kernel",
    "coupling_constants", "kernel_sum", "mean_field_force", "norm_equivalence_ratio",
    "smallness_holds", "smallness_threshold",
    "ContractionReport", "CoupledPair", "ParticleState", "SimConfig",
    "contraction_experiment", "coupled_step", "direct_pairwise_force",
    "euclidean_norm_sq", "force_jacobian_norm_bound_check", "modified_norm_sq",
    "noise_for_step", "pairwise_force", "simulate", "step",
    "GridConfig", "PhaseGrid", "cfl_bound", "gaussian_grid", "grid_from_density",
    "grid_to_binary", "grid_to_csv", "run_vfp", "stationary_fixed_point",
    "vfp_step", "x_marginal",
    "__version__",
]
