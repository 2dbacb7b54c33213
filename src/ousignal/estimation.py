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

from .config import RunConfig
from .fourier import FourierSignal, GridSignal, extract_coefficients, sup_distance
from .model import SampleSet, ScenarioConfig, _draw, _fold, _noiseless, _row_signal, _stream_rows
from .spectral import _spectrum, inverse_propagate

AMPLIFICATION_CAP = 1e12  # the largest inverse factor exp(-sigma_k t0) the estimator applies


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


def _invert(mean, config: ScenarioConfig) -> tuple[FourierSignal, float]:
    """(estimate, amplification_max) of a mean observation.

    A grid mean is converted to coefficients by quadrature (a sum past a float raises
    FloatingPointError, exit 3), a coefficient mean padded to K. Modes whose inverse
    factor exp(-sigma_k t0) passes the cap are zeroed first, with a warning: which ones
    depends on the rates and t0 alone, never on the data, since a mode damped below the last
    bit of the observations is as lost as one that reads as roundoff. The constant mode,
    with factor exp(-A_0 t0) <= 1, always stays; amplification_max is the largest kept.
    """
    if isinstance(mean, GridSignal):
        with np.errstate(over="raise"):
            mean = extract_coefficients(mean, config.mode_count)
    else:
        mean = mean.padded(config.mode_count)
    with np.errstate(over="ignore"):  # a product past a float is +-inf, which the mask reads
        inverse_log = -(_spectrum(config.op, config.mode_count, mean.half_period).sigma * config.t0)
    over = inverse_log > math.log(AMPLIFICATION_CAP)
    if np.any(over):
        warnings.warn(f"zeroing unrecoverable modes {np.nonzero(over)[0].tolist()}: inverse "
                      f"amplification exceeds {AMPLIFICATION_CAP:g}", stacklevel=2)
        mean = FourierSignal(mean.half_period, mean.c0, *np.where(over[1:], 0.0, [mean.c, mean.d]))
    return inverse_propagate(mean, config.op, config.t0), math.exp(inverse_log[~over].max())


def _report(config: ScenarioConfig, n_used: int, converged: bool, estimate: FourierSignal,
            amplification_max: float) -> EstimateReport:
    """Score an inverted mean against config.theta; both estimators end here."""
    truth = config.theta
    max_mode_error = float(np.max(np.hypot(estimate.c - truth.c, estimate.d - truth.d)))
    return EstimateReport(config.noise.sigma, n_used, converged, sup_distance(estimate, truth),
                          estimate.c0 - truth.c0, max_mode_error, amplification_max, estimate)


def run_estimate(samples: SampleSet) -> EstimateReport:
    """Average the samples, invert the channel, and score the estimate against the input.

    Grid samples are averaged pointwise and converted to coefficients by quadrature
    first; modes past the amplification cap are zeroed, with a warning (see _invert).
    """
    return _report(samples.config, samples.n, True, *_invert(samples.mean_signal(), samples.config))


def estimate_until_stable(config: ScenarioConfig, epsilon: float,
                          window: int = RunConfig.window,
                          n_max: int = RunConfig.n_max) -> EstimateReport:
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
        with np.errstate(over="raise"):
            total = _fold(buf, 1)
        previous = inverted
        inverted = _invert(_row_signal(half_period, form, total / n_used), config)
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


def _loglog_slope(n_grid, means) -> float:
    """Least-squares slope of log(means) on log(n_grid), in the centred closed form
    sum(xc yc) / sum(xc xc). It calls no LAPACK routine: np.polyfit's lstsq faulted
    about 1 MB of LAPACK into the process for this one fit.

    The means are rounded, so xc and yc are off centre by rx = mean(xc) and
    ry = mean(yc), and the sums gain N rx ry and N rx rx. Both are taken off
    again: on a grid as narrow as (999999848, 999999972) the N rx rx alone moved
    the slope by 4 ulp."""
    x = np.log(np.array(n_grid, dtype=float))
    y = np.log(means)
    xc, yc = x - x.mean(), y - y.mean()
    rx, ry = xc.mean(), yc.mean()
    return float((np.dot(xc, yc) - x.size * rx * ry) / (np.dot(xc, xc) - x.size * rx * rx))


def convergence_study(config: ScenarioConfig, n_grid, trials: int) -> ConvergenceStudy:
    """Repeat the estimation for each sample size and fit the error decay.

    Trial (n, t) draws its samples from streams keyed on (seed, n, t, i), so
    runs are reproducible and trials are independent; with quasi drivers each
    trial gets a disjoint block of streams. The slope is _loglog_slope of the
    mean sup errors, left undefined when the errors sit at roundoff level
    (noiseless channel).
    """
    n_grid = [int(n) for n in n_grid]
    if n_grid != sorted(n_grid) or len(set(n_grid)) != len(n_grid):
        raise ValueError("n_grid must be strictly ascending")
    if not n_grid or min(n_grid) < 1:
        raise ValueError("n_grid must hold positive sample sizes")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows, summary, quasi_shift = [], [], 0
    base = _noiseless(config)  # every trial's batch is this row plus its own noise
    for n in n_grid:
        cfg = replace(config, n=n)
        for trial in range(trials):
            report = run_estimate(_draw(cfg, base, (n, trial), quasi_shift))
            quasi_shift += n
            rows.append((n, trial, report.sup_error, report.c0_error, report.max_mode_error))
        errors = np.array([row[2] for row in rows[-trials:]])
        sd = float(errors.std(ddof=1)) if trials > 1 else 0.0
        summary.append((n, float(errors.mean()), sd))
    means = np.array([m for _, m, _ in summary])
    if len(n_grid) >= 2 and np.all(means > 1e-12):
        slope = _loglog_slope(n_grid, means)
    else:
        slope = None
    return ConvergenceStudy(rows, summary, slope)
