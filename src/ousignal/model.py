"""The transmission channel: propagate a signal and observe it under scalar noise.

Every observed sample is the deterministically propagated input plus a single
scalar noise draw times the constant-one function, so the randomness lives
entirely in the constant mode. Samples are reproducible: a batch or stream
draws from one source, sample i taking its point i + 1 (RandomSource.blocks),
so sample i depends only on (seed, subkey, i) in pseudo mode and on
(quasi_base + quasi_shift w, i) in quasi mode, w the draws a row takes, never
on how draws are grouped.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .fourier import FourierSignal, GridSignal
from .noise import (
    VARIANT_VARIANCE_MATCHED,
    VARIANTS,
    NoiseParams,
    RandomSource,
    _block_sizes,
    noise_variance,
    ou_integral_exact,
    ou_integral_series,
)
from .spectral import OperatorSpec, propagate

OBSERVATIONS = ("grid", "fourier")
OBSERVE_GRID, OBSERVE_FOURIER = OBSERVATIONS
SAMPLERS = ("exact", "series")
SAMPLER_EXACT, SAMPLER_SERIES = SAMPLERS

NOISE_MODES = ("none", "path", "iid")
NOISE_NONE, NOISE_PATH, NOISE_IID = NOISE_MODES

@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one simulation/estimation scenario."""

    theta: FourierSignal
    op: OperatorSpec
    noise: NoiseParams
    t0: float
    n: int = 1
    mode_count: int = 20
    grid_points: int = 200
    seed: int | None = 0
    quasi: bool = False
    quasi_base: int = 1
    observation_form: str = OBSERVE_GRID
    sampler: str = SAMPLER_EXACT
    series_variant: str = VARIANT_VARIANCE_MATCHED

    def __post_init__(self):
        if not 0 < self.t0 < math.inf:
            raise ValueError(f"observation time t0 must be positive and finite, got {self.t0:g}")
        if self.n < 1:
            raise ValueError("sample size n must be >= 1")
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        if self.grid_points < 2 * self.mode_count + 1:
            raise ValueError(
                f"grid_points={self.grid_points} cannot resolve mode_count={self.mode_count}; "
                f"need at least {2 * self.mode_count + 1}"
            )
        if self.observation_form not in OBSERVATIONS:
            raise ValueError(f"unknown observation form {self.observation_form!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.series_variant not in VARIANTS:
            raise ValueError(f"unknown series variant {self.series_variant!r}")
        if self.noise.a0 != self.op.a0:
            raise ValueError("noise a0 must equal the operator's zero-order coefficient")
        if self.theta.mode_count > self.mode_count:
            raise ValueError("theta has more modes than mode_count allows")
        if self.quasi_base < 1:
            raise ValueError("quasi_base starts at 1")
        object.__setattr__(self, "theta", self.theta.padded(self.mode_count))

    def with_sigma(self, sigma: float) -> "ScenarioConfig":
        return replace(self, noise=replace(self.noise, sigma=sigma))

    def to_dict(self) -> dict:
        """Plain-data summary of the resolved scenario, e.g. for run manifests.

        It holds no signal coefficients: a manifest's config text records the
        input signal, and this summary stays the same size whatever K is. Past the half
        period and the operator (whose A_0 is a0), it is every field of noise and scenario.
        """
        summary = {"half_period": self.theta.half_period, "operator": list(self.op.coefficients)}
        for part in (self.noise, self):
            summary.update((f.name, getattr(part, f.name)) for f in fields(part)
                           if f.name not in ("a0", "theta", "op", "noise"))
        return summary


def sample_source(config: ScenarioConfig, subkey: tuple[int, ...] = (),
                  quasi_shift: int = 0) -> RandomSource:
    """The one driver of a batch or stream: keyed (seed, *subkey), or quasi stream
    quasi_base + quasi_shift."""
    if config.quasi:
        return RandomSource.quasi(config.quasi_base + quasi_shift)
    if config.seed is None:
        raise ValueError("pseudo-random sampling needs a resolved seed")
    return RandomSource.pseudo(config.seed, *subkey)


def _coefficient_row(signal: FourierSignal) -> np.ndarray:
    """The row c0, 0, c_1, d_1, ..., c_K, d_K of a signal: the c,d cells of its samples.csv
    lines k = 0..K, in line order."""
    row = np.zeros(2 * signal.mode_count + 2)
    row[0], row[2::2], row[3::2] = signal.c0, signal.c, signal.d
    return row


def _constant_terms(block: np.ndarray, form: str) -> np.ndarray:
    """Each row's constant term: its grid mean, or c0 / 2."""
    return block.mean(axis=1) if form == OBSERVE_GRID else block[:, 0] / 2.0


def _row_signal(half_period: float, form: str, row: np.ndarray):
    """The signal a row holds: grid values, or coefficients c0, 0, c_1, d_1, ..., c_K, d_K."""
    if form == OBSERVE_GRID:
        return GridSignal(half_period, row)
    return FourierSignal(half_period, float(row[0]), row[2::2], row[3::2])


def _row_blocks(config: ScenarioConfig, subkey: tuple[int, ...] = (), quasi_shift: int = 0):
    """The drawn rows of samples 0, 1, ..., n - 1 in new blocks: row i is the noiseless row
    plus noise draw eta_i on every grid value, or plus 2 eta_i on c0 (twice the constant
    term). Draws and rows come in the blocks of _block_sizes."""
    base = _noiseless(config)
    width = 1 if config.sampler == SAMPLER_EXACT else config.noise.series_terms + 1
    rng = sample_source(config, subkey, quasi_shift * width)
    for draws in _block_sizes(config.n, width):
        g = rng.blocks(draws, width)
        if config.sampler == SAMPLER_EXACT:
            etas = math.sqrt(noise_variance(config.noise, config.t0)) * g[:, 0]
        else:
            etas = ou_integral_series(config.noise, config.t0, g, config.series_variant)
        start = 0
        for rows in _block_sizes(draws, base.size):
            part, start = etas[start:start + rows], start + rows
            block = np.empty((rows, base.size))
            block[...] = base  # then one add in place: faster than a broadcast base + part
            if config.observation_form == OBSERVE_GRID:
                block += part[:, None]
            else:
                block[:, 0] += 2.0 * part
            yield block


class SampleSet:
    """A set of observed signals: its scenario config, its form and a source of its rows.

    Each sample is one row: G grid values (form "grid"), or the 2K+2 coefficients
    c0, 0, c_1, d_1, ..., c_K, d_K of its samples.csv lines (form "fourier"; see
    _coefficient_row). The set holds no rows: blocks()
    returns a new iterator over them, as new (rows, width) arrays that a read may
    overwrite, drawn (sample_batch) or parsed (csvio.read_samples_csv) anew."""

    def __init__(self, config: ScenarioConfig, form: str, blocks):
        if form not in OBSERVATIONS:
            raise ValueError(f"unknown observation form {form!r}")
        self.config, self.form, self._blocks = config, form, blocks

    @cached_property
    def n(self) -> int:
        return sum(len(block) for block in self._blocks())

    def _stack(self, take) -> np.ndarray:
        """take(block) of every block, in one new read-only array of n rows, allocated on the
        first block; the set is read to fill the array, and once for n unless already read."""
        out, at = None, 0
        for block in self._blocks():
            part = take(block)
            if out is None:
                out = np.empty((self.n, *part.shape[1:]))
            out[at:at + len(part)] = part
            at += len(part)
        out.flags.writeable = False
        return out

    @cached_property
    def etas(self) -> np.ndarray:
        """Each row's constant term less the noiseless one."""
        constant = propagate(self.config.theta, self.config.op, self.config.t0).c0 / 2.0
        return self._stack(lambda block: _constant_terms(block, self.form) - constant)

    @cached_property
    def grid_values(self) -> np.ndarray | None:
        """The (n, G) value matrix of a grid set, else None."""
        return self._stack(lambda block: block) if self.form == OBSERVE_GRID else None

    def _mean(self, stop=None):
        """(mean signal, n): each block's first row takes the running sum, and numpy sums a
        block row by row (axis 0), so however the rows are blocked the bits are the same.

        stop, if given, reads each block before it is folded and returns None to take all of
        its rows and go on, or the count of its first rows to take and end the fold there."""
        total, n = -0.0, 0  # -0.0 adds to any row exactly
        with np.errstate(over="raise"):
            for block in self._blocks():
                take = None if stop is None else stop(block)
                block = block[:take]
                np.add(total, block[0], out=block[0])
                total, n = np.add.reduce(block, axis=0), n + len(block)
                if take is not None:
                    break
        return _row_signal(self.config.theta.half_period, self.form, total / n), n


def _noiseless(config: ScenarioConfig) -> np.ndarray:
    """The expected observation in the config's form, the propagated input, as a read-only row."""
    return _noiseless_row(config.theta, config.op, config.t0, config.observation_form,
                          config.grid_points)


@lru_cache(maxsize=1)  # a command's batches, trials, sigmas and stream share one
def _noiseless_row(theta: FourierSignal, op: OperatorSpec, t0: float, form: str,
                   points: int) -> np.ndarray:
    """_noiseless's row, kept while it is the last one asked for."""
    base = propagate(theta, op, t0)
    row = base.evaluate_grid(points).values if form == OBSERVE_GRID else _coefficient_row(base)
    row.flags.writeable = False
    return row


def sample_batch(config: ScenarioConfig, subkey: tuple[int, ...] = (),
                 quasi_shift: int = 0) -> SampleSet:
    """Draw n independent observations: the first n of the stream with the same keys. Quasi
    batch quasi_shift = k starts at quasi stream quasi_base + k w, for rows of w values."""
    return SampleSet(config, config.observation_form,
                     lambda: _row_blocks(config, subkey, quasi_shift))


def sample_stream(config: ScenarioConfig):
    """Generator of observations; its first n equal sample_batch's rows."""
    # sys.maxsize rows stand in for endless: a stream is never read that far
    for block in _row_blocks(replace(config, n=sys.maxsize)):
        for row in block:
            yield _row_signal(config.theta.half_period, config.observation_form, row)


def evolve_frames(config: ScenarioConfig, times,
                  noise: str = NOISE_NONE) -> Iterator[tuple[float, GridSignal]]:
    """Snapshots (t, GridSignal) of the evolving signal at the given times.

    noise selects how the scalar noise enters: 'none' for the deterministic
    evolution, 'path' for one trajectory driven by a single coefficient vector
    (the series form, read at every frame time on the clock of the last), or
    'iid' for an independent exact draw per frame. Frames at t = 0 carry no
    noise. The inputs are checked on the call; each frame is made when reached.
    The result is a one-pass iterator: wrap it in list(...) to read it twice.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("frame times must not be empty")
    for t in times:
        if not 0 <= t < math.inf:
            raise ValueError(f"frame times must be non-negative and finite, got {t:g}")
    if sorted(times) != times:
        raise ValueError("frame times must be sorted ascending")
    if noise not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {noise!r}")
    rng = sample_source(config) if noise != NOISE_NONE else None
    noisy = [t for t in times if t > 0] if config.noise.sigma > 0 and noise != NOISE_NONE else []
    if noise == NOISE_PATH:
        coeffs = rng.blocks(1, config.noise.series_terms + 1)[0]
        etas = iter(ou_integral_series(config.noise, noisy, coeffs, config.series_variant))

    def frames():
        for t in times:
            values = propagate(config.theta, config.op, t).evaluate_grid(config.grid_points)
            if t > 0 and noisy:
                eta = next(etas) if noise == NOISE_PATH else ou_integral_exact(config.noise, t, rng)
                values = GridSignal(values.half_period, values.values + eta)
            yield t, values

    return frames()
