"""Adaptive measurement scheduling for Ramsey-style magnetometry."""

__version__ = "0.1.0"

from .bayes import (
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    ZeroEvidence,
    bayes_update,
    binary_entropy,
    distribution_from_density,
    entropy,
    expected_posterior_functional,
    gaussian_distribution,
    likelihood,
    mean,
    mutual_information,
    mutual_information_surface,
    predictive_prob,
    spike_distribution,
    uniform_distribution,
    variance,
)
from .fourier import (
    DeltaComb,
    alpha_series_closed,
    alpha_series_quadrature,
    bias_from_comb,
    comb_from_distribution,
    conditional_entropy_from_comb,
    contrast_entropy_series,
    kpe_posterior_comb,
    measurement_comb,
)
from .policies import (
    PolicyConfig,
    PolicyState,
    next_params,
    next_params_kpe,
    next_params_myopic_entropy,
    next_params_random,
    next_params_variance_min,
)
from .simulate import (
    EnsembleSummary,
    SimConfig,
    Trajectory,
    run_ensemble,
    run_trial,
    run_trials,
    sample_outcome,
)
