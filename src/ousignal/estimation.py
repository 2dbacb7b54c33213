"""Recovery of the transmitted signal from observed samples.

The estimator averages the observations and applies the inverse propagator;
by linearity this equals averaging the individually inverted samples, and by
the strong law of large numbers the result converges to the input signal in
sup norm as the sample size grows (at the usual 1/sqrt(n) Monte Carlo rate,
since the only randomness is the constant-mode offset).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .fourier import FourierSignal, GridSignal, extract_coefficients, sup_distance
from .model import SampleSet, ScenarioConfig, _fold, _row_signal, _stream_rows, sample_batch
from .spectral import AMPLIFICATION_CAP, OperatorSpec, inverse_propagate, mode_spectrum


class EstimateReport(NamedTuple):
    """One estimate_report.csv row (every field but the last, in column order) and the
    recovered signal, scored against the scenario's input."""

    sigma: float
    n_used: int
    converged: bool
    sup_error: float
    c0_error: float
    max_mode_error: float
    amplification_max: float
    estimate: FourierSignal


def _cap_unrecoverable_modes(mean_signal: FourierSignal, op: OperatorSpec,
                             t0: float) -> tuple[FourierSignal, float]:
    """Zero out modes whose inverse factor exceeds the cap; report the max applied.

    Which modes go depends only on the channel (op, t0, K), never on the data:
    a mode damped below the last bit of the observations reads as zero, and
    is as lost as one that reads as roundoff.
    """
    spectrum = mode_spectrum(op, mean_signal.mode_count, mean_signal.half_period)
    factors_log = -spectrum.sigma * t0
    over = factors_log > math.log(AMPLIFICATION_CAP)
    if np.any(over):
        dropped = (np.nonzero(over)[0] + 1).tolist()
        warnings.warn(
            f"zeroing unrecoverable modes {dropped}: inverse amplification exceeds "
            f"{AMPLIFICATION_CAP:g}", stacklevel=2
        )
        mean_signal = FourierSignal(mean_signal.half_period, mean_signal.c0,
                                    np.where(over, 0.0, mean_signal.c),
                                    np.where(over, 0.0, mean_signal.d))
    applied = factors_log[~over]
    worst = max(float(np.max(applied)) if applied.size else -math.inf, -op.a0 * t0)
    return mean_signal, math.exp(worst)


def _invert(mean, config: ScenarioConfig) -> tuple[FourierSignal, float]:
    """(estimate, amplification_max) of a mean observation.

    A grid mean is converted to coefficients by quadrature, a coefficient mean
    padded to K; unrecoverable modes are zeroed before the inversion.
    """
    if isinstance(mean, GridSignal):
        mean = extract_coefficients(mean, config.mode_count)
    else:
        mean = mean.padded(config.mode_count)
    mean, amplification_max = _cap_unrecoverable_modes(mean, config.op, config.t0)
    return inverse_propagate(mean, config.op, config.t0), amplification_max


def _report(config: ScenarioConfig, n_used: int, converged: bool, estimate: FourierSignal,
            amplification_max: float) -> EstimateReport:
    """Score an inverted mean against config.theta; both estimators end here."""
    truth = config.theta
    max_mode_error = float(np.max(np.hypot(estimate.c - truth.c, estimate.d - truth.d)))
    return EstimateReport(config.noise.sigma, n_used, converged, sup_distance(estimate, truth),
                          estimate.c0 - truth.c0, max_mode_error, amplification_max, estimate)


def run_estimate(samples: SampleSet) -> EstimateReport:
    """Average the samples, invert the channel, and score the estimate against the input.

    Grid samples are averaged pointwise and converted to coefficients by
    quadrature first. Modes damped so strongly that inverting them would
    amplify beyond the cap are zeroed (with a warning) instead of exploding
    quadrature roundoff into the estimate.
    """
    return _report(samples.config, samples.n, True, *_invert(samples.mean_signal(), samples.config))


def estimate_until_stable(config: ScenarioConfig, epsilon: float, window: int = 4,
                          n_max: int = 10000) -> EstimateReport:
    """Running estimate over sample_stream(config) with a Cauchy stopping rule.

    Folds the rows of that stream into a running sum one at a time, through
    the fold of SampleSet.mean_signal (so the mean is a batch's bit for bit),
    inverts each running mean once, as run_estimate does, and stops once all
    consecutive sup-norm gaps inside a window of `window` successive
    estimates fall strictly below epsilon. Exhausting n_max is reported via
    converged=False, never by fabricating a value.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if window < 2:
        raise ValueError("window must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    half_period, form = config.theta.half_period, config.observation_form
    buf = inverted = None
    gaps: deque[float] = deque(maxlen=window - 1)
    for n_used, row in enumerate(_stream_rows(config), start=1):
        if buf is None:
            buf = np.full((2, row.size), -0.0)  # the running sum, then the row to add
        buf[1] = row
        previous = inverted
        inverted = _invert(_row_signal(half_period, form, _fold(buf, 1) / n_used), config)
        if previous is not None:
            gaps.append(sup_distance(inverted[0], previous[0]))
        converged = len(gaps) == window - 1 and all(g < epsilon for g in gaps)
        if converged or n_used >= n_max:
            return _report(config, n_used, converged, *inverted)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-trial errors, per-n summaries, and the fitted error-decay slope."""

    rows: list[tuple[int, int, float, float, float]]
    summary: list[tuple[int, float, float]]
    slope: float | None


def convergence_study(config: ScenarioConfig, n_grid, trials: int) -> ConvergenceStudy:
    """Repeat the estimation for each sample size and fit the error decay.

    Trial (n, t) draws its samples from streams keyed on (seed, n, t, i), so
    runs are reproducible and trials are independent; with quasi drivers each
    trial gets a disjoint block of streams. The slope is the least-squares
    fit of log(mean sup error) against log(n), left undefined when the
    errors sit at roundoff level (noiseless channel).
    """
    n_grid = [int(n) for n in n_grid]
    if n_grid != sorted(n_grid) or len(set(n_grid)) != len(n_grid):
        raise ValueError("n_grid must be strictly ascending")
    if not n_grid or min(n_grid) < 1:
        raise ValueError("n_grid must hold positive sample sizes")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    summary = []
    quasi_shift = 0
    for n in n_grid:
        errors = []
        for trial in range(trials):
            cfg = replace(config, n=n)
            batch = sample_batch(cfg, subkey=(n, trial), quasi_shift=quasi_shift)
            quasi_shift += n
            report = run_estimate(batch)
            rows.append((n, trial, report.sup_error, report.c0_error, report.max_mode_error))
            errors.append(report.sup_error)
        errors = np.array(errors)
        sd = float(errors.std(ddof=1)) if trials > 1 else 0.0
        summary.append((n, float(errors.mean()), sd))
    means = np.array([m for _, m, _ in summary])
    if len(n_grid) >= 2 and np.all(means > 1e-12):
        slope = float(np.polyfit(np.log(np.array(n_grid, dtype=float)), np.log(means), 1)[0])
    else:
        slope = None
    return ConvergenceStudy(rows, summary, slope)
