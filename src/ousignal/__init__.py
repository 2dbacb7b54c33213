"""Numerical lab for signal transmission through a noisy spectral channel.

Simulate the exact solution of a linear evolution equation driven by scalar
Gaussian noise on the periodic interval [-l, l), verify the analytic noise
moments by Monte Carlo, and recover the transmitted signal from observed
samples with a sample-mean inverse-propagation estimator.
"""

from .config import RunConfig, load_config
from .errors import (
    AliasingError,
    ConfigError,
    GrowthOverflowError,
    OusignalError,
)
from .estimation import (
    ConvergenceStudy,
    EstimateReport,
    convergence_study,
    estimate_until_stable,
    run_estimate,
)
from .fourier import FourierSignal, GridSignal, extract_coefficients, sup_distance
from .model import (
    SampleSet,
    ScenarioConfig,
    evolve_frames,
    sample_batch,
    sample_source,
    sample_stream,
)
from .noise import (
    NoiseParams,
    RandomSource,
    noise_covariance,
    noise_variance,
    ou_integral_exact,
    ou_integral_series,
    ou_joint_pairs,
)
from .spectral import (
    ModeSpectrum,
    OperatorSpec,
    inverse_propagate,
    mode_spectrum,
    propagate,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "ConfigError",
    "ConvergenceStudy",
    "EstimateReport",
    "FourierSignal",
    "GridSignal",
    "GrowthOverflowError",
    "ModeSpectrum",
    "NoiseParams",
    "OperatorSpec",
    "OusignalError",
    "RandomSource",
    "RunConfig",
    "SampleSet",
    "ScenarioConfig",
    "convergence_study",
    "estimate_until_stable",
    "evolve_frames",
    "extract_coefficients",
    "inverse_propagate",
    "load_config",
    "mode_spectrum",
    "noise_covariance",
    "noise_variance",
    "ou_integral_exact",
    "ou_integral_series",
    "ou_joint_pairs",
    "propagate",
    "run_estimate",
    "sample_batch",
    "sample_source",
    "sample_stream",
    "sup_distance",
]
