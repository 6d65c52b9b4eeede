"""Kinetic opinion formation on (-1, 1): Fokker-Planck dynamics with variable
diffusion, its binary-interaction Monte Carlo counterpart, and numerical
verification of the entropy-method convergence machinery."""

from .config import ConfigError, ExperimentConfig, McConfig, parse_config
from .equilibrium import BetaEquilibrium, log_normalization
from .fitting import DecayFit, fit_decay_rate
from .functionals import (
    PositivityError,
    l1_distance,
    ls_slack,
    relative_entropy,
    uniform_ls_slack,
    weighted_fisher,
    weighted_l2,
)
from .grid import (
    DensityField,
    Grid,
    GridMismatchError,
    bimodal_density,
    uniform_density,
)
from .montecarlo import (
    Ensemble,
    InteractionParams,
    histogram,
    initial_ensemble,
    mc_sweeps,
    moments,
    sample_noise,
)
from .params import (
    KineticParams,
    ParamRegime,
    RegimeError,
    bakry_emery_rho,
    classify_params,
    log_sobolev_constant,
)
from .solver import (
    SolverError,
    Trajectory,
    assemble_coefficients,
    discretize_equilibrium,
    solve,
)
from .transform import (
    angular_equilibrium,
    angular_equilibrium_explicit,
    boundary_exponents,
    minimize_potential_second,
)

__version__ = "0.1.0"
