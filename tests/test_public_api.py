"""The public surface: what `import ousignal` exports, and the names it no longer has."""

import inspect
import math

import numpy as np
import pytest

import ousignal
from ousignal import cli, csvio, errors, estimation, manifest, model, noise, spectral
from ousignal.fourier import FourierSignal, GridSignal, extract_coefficients
from ousignal.model import SampleSet, evolve_frames, sample_source
from ousignal.noise import (NoiseParams, RandomSource, noise_covariance, noise_variance,
                            ou_integral_exact, ou_integral_series, ou_joint_pairs,
                            quasi_gaussian)
from ousignal.spectral import ModeSpectrum, OperatorSpec

from _util import make_config

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


_NOISE = NoiseParams(sigma=1.0, a0=2.0)
_GRID = GridSignal(math.pi, np.zeros(5))

# (call, message): each guard of the public API that a command never reaches, called with
# the one argument it refuses
GUARDS = {
    "noise-sigma": (lambda: NoiseParams(sigma=-1.0, a0=2.0), "sigma must be a non-negative"),
    "noise-a0": (lambda: NoiseParams(sigma=1.0, a0=0.0), "a0 must be a positive"),
    "noise-kernel": (lambda: NoiseParams(a0=2.0, kernel="bogus"), "unknown kernel 'bogus'"),
    "noise-series-terms": (lambda: NoiseParams(a0=2.0, series_terms=0),
                           "series_terms must be >= 1"),
    "source-mode": (lambda: RandomSource("bogus"), "unknown RandomSource mode 'bogus'"),
    "source-stream": (lambda: RandomSource.quasi(0), "quasi stream index starts at 1"),
    "source-count": (lambda: RandomSource.pseudo(1).normals(-1), "count must be non-negative"),
    "kl-sum-shape": (lambda: ou_integral_series(_NOISE, 0.5, np.zeros((1, 1, 3))),
                     "coefficients must be a non-empty vector"),
    "variance-time": (lambda: noise_variance(_NOISE, -1.0), "t must be non-negative"),
    "covariance-time": (lambda: noise_covariance(_NOISE, 0.5, -1.0),
                        "times must be non-negative"),
    "exact-time": (lambda: ou_integral_exact(_NOISE, 0.0, RandomSource.pseudo(1)),
                   "t0 must be positive"),
    "series-time": (lambda: ou_integral_series(_NOISE, [0.5, -1.0], np.zeros(3)),
                    "t0 must be a non-negative time"),
    "series-variant": (lambda: ou_integral_series(_NOISE, 0.5, np.zeros(3), "bogus"),
                       "unknown series variant 'bogus'"),
    "pairs-time": (lambda: ou_joint_pairs(_NOISE, -1.0, 0.5, 3, RandomSource.pseudo(1)),
                   "times and count must be non-negative"),
    "scenario-mode-count": (lambda: make_config(theta=FourierSignal.build(c0=1.0), mode_count=0),
                            "mode_count must be >= 1"),
    "scenario-form": (lambda: make_config(observation_form="bogus"),
                      "unknown observation form 'bogus'"),
    "scenario-sampler": (lambda: make_config(sampler="bogus"), "unknown sampler 'bogus'"),
    "scenario-quasi-base": (lambda: make_config(quasi_base=0), "quasi_base starts at 1"),
    "source-seed": (lambda: sample_source(make_config(seed=None)),
                    "pseudo-random sampling needs a resolved seed"),
    "sample-set-form": (lambda: SampleSet(make_config(), "bogus", iter),
                        "unknown observation form 'bogus'"),
    "frames-noise": (lambda: evolve_frames(make_config(), [0.0], noise="bogus"),
                     "unknown noise mode 'bogus'"),
    "build-mode-index": (lambda: FourierSignal.build(cos={0: 1.0}, mode_count=2),
                         "mode indices start at 1"),
    "evaluate-grid-points": (lambda: FourierSignal.build(c0=1.0).evaluate_grid(0),
                             "grid_points must be >= 1"),
    "padded-fewer": (lambda: FourierSignal.build(cos={2: 1.0}).padded(1),
                     "cannot pad to fewer modes"),
    "grid-half-period": (lambda: GridSignal(-1.0, np.zeros(3)), "half_period must be a positive"),
    "grid-finite": (lambda: GridSignal(math.pi, [0.0, math.nan]), "grid values must be finite"),
    "extract-mode-count": (lambda: extract_coefficients(_GRID, 0), "mode_count must be >= 1"),
    "operator-finite": (lambda: OperatorSpec((1.0, math.inf, 0.0)),
                        "operator coefficients must be finite"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_public_api_guards_refuse_bad_input(case):
    call, message = GUARDS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_quasi_endpoint_is_clamped_by_machine_epsilon():
    # 2**53 sqrt(2) is an integral double, so its fractional part is 0: clamped to epsilon
    with pytest.warns(UserWarning, match="hit an endpoint"):
        value = quasi_gaussian(1, 2**53)
    assert value == pytest.approx(-8.1259, abs=1e-4)
