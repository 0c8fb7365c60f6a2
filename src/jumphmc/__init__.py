"""Hamiltonian Monte Carlo driven by a continuous-time Markov jump process.

The package provides the jump-process sampler, a discrete-time HMC control,
finite ring-ladder spectral-gap analysis, autocorrelation diagnostics with a
complex decay-rate fit, and a random-search hyperparameter tuner.
"""

from .diagnostics import AutocorrSeries, DecayFit, autocorrelation, fit_decay, tuning_objective
from .energy import (
    CountingEnergy,
    DiagonalGaussian,
    EnergyFunction,
    GaussianParams,
    RoughWell,
    RoughWellParams,
    joint_energy,
)
from .errors import (
    DecayFitError,
    DegenerateChainError,
    DegenerateLadderError,
    DimensionError,
    IntegrationError,
)
from .jump import (
    Chain,
    SamplerConfig,
    StateCache,
    init_cache,
    step,
    systematic_resample_indices,
    weighted_moments,
)
from .ladder import (
    DEFAULT_LADDER_SIZES,
    GapExperimentResult,
    Ladder,
    balance_check,
    build_mjhmc_rate_matrix,
    certified_ring_gap,
    embedded_chain,
    embedded_fixed_point_check,
    holding_time_diag,
    ladder_chain,
    ladder_spectral_gap,
    ladder_stationary,
    min_exponential_oracle,
    random_ladder_experiment,
    similarity_check,
    spectral_distance,
    spectral_gap,
)
from .phase import LeapfrogParams, PhaseState
from .tuner import (
    SearchSpace,
    TrialRecord,
    TuningEvalConfig,
    evaluate_trial,
    random_search,
    run_chain,
    unweighted_samples,
)

__version__ = "0.1.0"
