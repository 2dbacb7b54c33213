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

import numpy as np

from .fourier import FourierSignal, GridSignal, extract_coefficients, sup_distance
from .model import (OBSERVE_FOURIER, OBSERVE_GRID, SampleSet, ScenarioConfig, _add_rows,
                    _row_signal, _signal_row, sample_batch)
from .spectral import AMPLIFICATION_CAP, OperatorSpec, inverse_propagate, mode_spectrum


@dataclass(frozen=True)
class EstimateReport:
    """Recovered signal plus error metrics against the known input."""

    estimate: FourierSignal
    sup_error: float
    c0_error: float
    max_mode_error: float
    n_used: int
    amplification_max: float


def _cap_unrecoverable_modes(mean_signal: FourierSignal, op: OperatorSpec, t0: float,
                             amplification_cap: float) -> tuple[FourierSignal, float]:
    """Zero out modes whose inverse factor exceeds the cap; report the max applied."""
    spectrum = mode_spectrum(op, mean_signal.mode_count, mean_signal.half_period)
    factors_log = -spectrum.sigma * t0
    log_cap = math.log(amplification_cap)
    over = factors_log > log_cap
    c = mean_signal.c
    d = mean_signal.d
    if np.any(over & ((c != 0.0) | (d != 0.0))):
        dropped = (np.nonzero(over)[0] + 1).tolist()
        warnings.warn(
            f"zeroing unrecoverable modes {dropped}: inverse amplification exceeds "
            f"{amplification_cap:g}", stacklevel=3
        )
        c = np.where(over, 0.0, c)
        d = np.where(over, 0.0, d)
        mean_signal = FourierSignal(mean_signal.half_period, mean_signal.c0, c, d)
    applied = factors_log[~over]
    worst = max(float(np.max(applied)) if applied.size else -math.inf, -op.a0 * t0)
    return mean_signal, math.exp(worst)


def _estimate_with_info(mean, op: OperatorSpec, t0: float, mode_count: int,
                        amplification_cap: float):
    """(estimate, amplification_max) of a mean observation; both estimators go through here."""
    if isinstance(mean, GridSignal):
        mean = extract_coefficients(mean, mode_count)
    else:
        mean = mean.padded(mode_count)
    mean, amplification_max = _cap_unrecoverable_modes(mean, op, t0, amplification_cap)
    estimate = inverse_propagate(mean, op, t0, amplification_cap=amplification_cap)
    return estimate, amplification_max


def error_report(estimate: FourierSignal, truth: FourierSignal, n_used: int = 1,
                 amplification_max: float = float("nan")) -> EstimateReport:
    """Error metrics of an estimate against the known input signal."""
    if estimate.half_period != truth.half_period:
        raise ValueError("half_period mismatch between estimate and truth")
    if estimate.mode_count != truth.mode_count:
        raise ValueError("mode count mismatch between estimate and truth")
    sup_error = sup_distance(estimate, truth)
    c0_error = estimate.c0 - truth.c0
    if estimate.mode_count:
        max_mode_error = float(np.max(np.hypot(estimate.c - truth.c, estimate.d - truth.d)))
    else:
        max_mode_error = 0.0
    return EstimateReport(estimate, sup_error, c0_error, max_mode_error, n_used,
                          amplification_max)


def run_estimate(samples: SampleSet, truth: FourierSignal | None = None,
                 amplification_cap: float = AMPLIFICATION_CAP) -> EstimateReport:
    """Average the samples, invert the channel, and score the estimate against the input.

    Grid samples are averaged pointwise and converted to coefficients by
    quadrature first. Modes damped so strongly that inverting them would
    amplify beyond the cap are zeroed (with a warning) instead of exploding
    quadrature roundoff into the estimate. The truth defaults to the
    scenario's input signal.
    """
    config = samples.config
    if truth is None:
        truth = config.theta
    estimate, amplification_max = _estimate_with_info(samples.mean_signal(), config.op, config.t0,
                                                      config.mode_count, amplification_cap)
    return error_report(estimate, truth.padded(config.mode_count), n_used=samples.n,
                        amplification_max=amplification_max)


def estimate_until_stable(stream, op: OperatorSpec, t0: float, mode_count: int,
                          epsilon: float, window: int = 4, n_max: int = 10000):
    """Running estimate with a Cauchy stopping rule.

    Consumes samples from the stream, adds each to a running sum by the fold
    SampleSet.mean_signal uses (so the mean is a batch's bit for bit),
    inverts the mean as run_estimate does (unrecoverable modes zeroed),
    and stops once all consecutive sup-norm gaps inside a window of `window`
    successive estimates fall strictly below epsilon. Returns (estimate,
    n_used, converged); exhausting n_max is reported via converged=False,
    never by fabricating a value.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if window < 2:
        raise ValueError("window must be >= 2")
    total = None
    estimate = None
    gaps: deque[float] = deque(maxlen=window - 1)
    n_used = 0
    for z in stream:
        n_used += 1
        form = OBSERVE_GRID if isinstance(z, GridSignal) else OBSERVE_FOURIER
        total = _add_rows(total, _signal_row(z)[None, :])
        mean = _row_signal(z.half_period, form, total / n_used)
        previous = estimate
        estimate, _ = _estimate_with_info(mean, op, t0, mode_count, AMPLIFICATION_CAP)
        if previous is not None:
            gaps.append(sup_distance(estimate, previous))
        if len(gaps) == window - 1 and all(g < epsilon for g in gaps):
            return estimate, n_used, True
        if n_used >= n_max:
            return estimate, n_used, False
    return estimate, n_used, False


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
