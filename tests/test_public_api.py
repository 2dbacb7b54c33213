"""The public surface: what `import ousignal` exports, and the names it no longer has."""

import inspect

import ousignal
from ousignal import cli, csvio, errors, estimation, manifest, model, noise, spectral
from ousignal.fourier import FourierSignal, GridSignal
from ousignal.model import SampleSet
from ousignal.spectral import ModeSpectrum, OperatorSpec

PUBLIC = {
    # errors
    "AliasingError", "ConfigError", "GrowthOverflowError",
    "OusignalError",
    # config
    "RunConfig", "load_config",
    # signals and the operator
    "FourierSignal", "GridSignal", "extract_coefficients", "sup_distance",
    "ModeSpectrum", "OperatorSpec", "inverse_propagate", "mode_spectrum", "propagate",
    # noise
    "NoiseParams", "RandomSource", "noise_covariance", "noise_variance",
    "ou_integral_exact", "ou_integral_series", "ou_joint_pairs",
    # the channel
    "SampleSet", "ScenarioConfig", "evolve_frames", "sample_batch", "sample_source",
    "sample_stream",
    # estimation
    "ConvergenceStudy", "EstimateReport", "convergence_study", "estimate_until_stable",
    "run_estimate",
}

# (owner, name): deleted, or no longer exported from the package
GONE = [
    (model, "empirical_moments"),
    (SampleSet, "values_at"),
    (SampleSet, "signals"),
    (SampleSet, "fourier_coef"),
    (noise, "wiener_path_value"),
    (csvio, "read_fourier_csv"),
    (csvio, "read_grid_csv"),
    (csvio, "write_grid_csv"),
    (GridSignal, "value_near"),
    (GridSignal, "nearest_index"),
    (GridSignal, "__mul__"),
    (GridSignal, "__rmul__"),
    (GridSignal, "__add__"),
    (GridSignal, "__radd__"),
    (FourierSignal, "plus_constant"),
    (FourierSignal, "mode_radii"),
    (FourierSignal, "__add__"),
    (FourierSignal, "__sub__"),
    (FourierSignal, "__mul__"),
    (FourierSignal, "__rmul__"),
    (estimation, "estimate_signal"),
    (estimation, "error_report"),
    (OperatorSpec, "order"),
    (ModeSpectrum, "mode_count"),
    (ModeSpectrum, "sigma0"),
    (cli, "entry"),
    (cli, "_finish"),
    (ousignal, "empirical_moments"),
    (ousignal, "estimate_signal"),
    (ousignal, "error_report"),
    (ousignal, "gaussian_inverse_cdf"),
    (ousignal, "nth_prime"),
    (ousignal, "quasi_gaussian"),
    (ousignal, "wiener_path_value"),
    (ousignal, "KLDomainError"),
    (errors, "KLDomainError"),
    (ousignal, "AmplificationError"),
    (errors, "AmplificationError"),
    (ousignal, "analytic_mean"),
    (model, "analytic_mean"),
    (estimation, "_cap_unrecoverable_modes"),
    (spectral, "_Channel"),
    (spectral, "_channel"),
    (manifest, "write_columns"),
    (SampleSet, "_block"),
    (model, "_stream_rows"),
    (model, "_fold"),
    (csvio, "_read_table"),
    (csvio, "_coefficient_table"),
    (SampleSet, "signal"),
    (SampleSet, "mean_signal"),
    (SampleSet, "_matrix"),
    (noise.RandomSource, "__repr__"),
    (ousignal, "parse_config_text"),
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert len(PUBLIC) == 33
    assert sorted(ousignal.__all__) == sorted(PUBLIC)  # as lists: a repeated name fails too
    for name in ousignal.__all__:
        getattr(ousignal, name)


def test_deleted_names_are_gone():
    # a deleted __repr__ leaves the one every object has
    present = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in GONE
               if hasattr(owner, name) and getattr(owner, name) is not getattr(object, name, None)]
    assert present == []


def test_a_sample_set_is_its_config_form_and_row_blocks():
    # a drawn set once held (base, etas) and a read one its row matrix, through three
    # keyword forms; both are now a source of row blocks
    assert list(inspect.signature(SampleSet).parameters) == ["config", "form", "blocks"]
