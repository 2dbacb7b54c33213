"""The transmission channel: propagate a signal and observe it under scalar noise.

Every observed sample is the deterministically propagated input plus a single
scalar noise draw times the constant-one function, so the randomness lives
entirely in the constant mode. Samples are reproducible: a batch or stream
draws from one source, sample i taking row i of it (RandomSource.blocks), so
sample i depends only on (seed, subkey, i) in pseudo mode and on quasi stream
quasi_base + quasi_shift + i in quasi mode, never on how draws are grouped.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from functools import cached_property

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


def _noise_blocks(config: ScenarioConfig, subkey: tuple[int, ...] = (),
                  quasi_shift: int = 0, count: int | None = None):
    """Noise draws of samples 0, 1, ... in the blocks of _block_sizes(count, width)."""
    width = 1 if config.sampler == SAMPLER_EXACT else config.noise.series_terms + 1
    rng = sample_source(config, subkey, quasi_shift)
    for rows in _block_sizes(count, width):
        g = rng.blocks(rows, width)
        if config.sampler == SAMPLER_EXACT:
            yield math.sqrt(noise_variance(config.noise, config.t0)) * g[:, 0]
        else:
            yield ou_integral_series(config.noise, config.t0, g, config.series_variant)


def _signal_row(signal) -> np.ndarray:
    """A signal as one row: its grid values, or its coefficients c0, c_1..c_K, d_1..d_K."""
    if isinstance(signal, GridSignal):
        return signal.values
    return np.concatenate([[signal.c0], signal.c, signal.d])


def _row_signal(half_period: float, form: str, row: np.ndarray):
    """The signal a row holds: the inverse of _signal_row."""
    if form == OBSERVE_GRID:
        return GridSignal(half_period, row)
    k = (row.size - 1) // 2
    return FourierSignal(half_period, float(row[0]), row[1: k + 1], row[k + 1:])


def _form_rows(base: np.ndarray, etas: np.ndarray, form: str,
               out: np.ndarray | None = None) -> np.ndarray:
    """Drawn rows (into out, if given): row i the noiseless row base plus eta_i on every grid
    value, or plus 2 eta_i on c0 (the stored c0 is twice the constant term)."""
    out = np.empty((etas.size, base.size)) if out is None else out
    out[...] = base
    if form == OBSERVE_GRID:
        out += etas[:, None]
    else:
        out[:, 0] += 2.0 * etas
    return out


def _fold(buf: np.ndarray, rows: int) -> np.ndarray:
    """Add rows 1..rows of buf to the running row sum in its row 0, and return that sum.

    numpy reduces axis 0 of a C-ordered matrix row by row, so the sum has the same bits
    however the rows are blocked; row 0 starts at -0.0, which adds to any row exactly.
    Both estimators fold their rows here, under np.errstate(over="raise") set once per
    mean, so a sum of finite rows past a float raises FloatingPointError (exit 3)."""
    return np.add.reduce(buf[:rows + 1], axis=0, out=buf[0])


class SampleSet:
    """A batch of observed signals with their noise draws and provenance.

    Each sample is one row: G grid values, or 2K+1 coefficients with columns
    c0, c_1..c_K, d_1..d_K. A drawn batch keeps what it is made of, the
    noiseless observation `base` and the per-sample noise draws `etas`: row
    i is base with eta_i added to its constant mode. A set read back from
    disk keeps its row matrix (passed as `grid_values` or `fourier_coef`;
    etas NaN). Rows are read in the contiguous blocks of noise._block_sizes,
    so the mean and the CSV writer hold one block whatever n is. Only the
    grid_values view builds a drawn set's whole matrix, on first use.
    """

    def __init__(self, config: ScenarioConfig, etas: np.ndarray,
                 grid_values: np.ndarray | None = None,
                 fourier_coef: np.ndarray | None = None,
                 base: GridSignal | FourierSignal | None = None):
        if sum(a is not None for a in (grid_values, fourier_coef, base)) != 1:
            raise ValueError("exactly one of grid_values / fourier_coef / base must be set")
        self.config = config
        self.etas = etas
        self._base = None if base is None else _signal_row(base)
        self._rows = grid_values if grid_values is not None else fourier_coef
        self._width = (self._rows if base is None else self._base).shape[-1]
        grid = grid_values is not None or isinstance(base, GridSignal)
        self.form = OBSERVE_GRID if grid else OBSERVE_FOURIER

    @property
    def n(self) -> int:
        return self.etas.size if self._rows is None else self._rows.shape[0]

    @cached_property
    def grid_values(self) -> np.ndarray | None:
        """The (n, G) value matrix of a grid set, else None.

        A drawn set builds its rows once, on first use, read-only.
        """
        if self.form != OBSERVE_GRID:
            return None
        if self._rows is not None:
            return self._rows
        rows = self._block(0, self.n)
        rows.flags.writeable = False
        return rows

    def _block(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows start..stop-1 (stop <= n), written into out when it is given; else a view
        of a read set's matrix, or a drawn set's rows formed into a new array."""
        if self._rows is None:
            return _form_rows(self._base, self.etas[start:stop], self.form, out)
        if out is None:
            return self._rows[start:stop]
        out[...] = self._rows[start:stop]
        return out

    def _blocks(self, buf: np.ndarray | None = None):
        """All rows in order, in the blocks of _block_sizes; below row 0 of buf, if given."""
        start = 0
        for rows in _block_sizes(self.n, self._width):
            yield self._block(start, start + rows, None if buf is None else buf[1:rows + 1])
            start += rows

    def signal(self, i: int):
        """Materialize sample i as a GridSignal or FourierSignal."""
        i = range(self.n)[i]
        return _row_signal(self.config.theta.half_period, self.form, self._block(i, i + 1)[0])

    def mean_signal(self):
        """Pointwise (grid) or coefficient-wise (Fourier) sample mean: the row sum over n."""
        # the running sum, then room for the first block, which is the largest
        buf = np.full((next(_block_sizes(self.n, self._width)) + 1, self._width), -0.0)
        with np.errstate(over="raise"):
            for block in self._blocks(buf):
                _fold(buf, len(block))
        return _row_signal(self.config.theta.half_period, self.form, buf[0] / self.n)


def _noiseless(config: ScenarioConfig):
    """The expected observation in the config's form: the propagated input."""
    base = propagate(config.theta, config.op, config.t0)
    if config.observation_form == OBSERVE_GRID:
        return base.evaluate_grid(config.grid_points)
    return base


def _draw(config: ScenarioConfig, base, subkey: tuple = (), quasi_shift: int = 0) -> SampleSet:
    """sample_batch on a base formed once: trials and sigmas share _noiseless(config).
    The draws fill one array of n, a noise block at a time."""
    etas, start = np.empty(config.n), 0
    for block in _noise_blocks(config, subkey, quasi_shift, config.n):
        etas[start:start + block.size] = block
        start += block.size
    return SampleSet(config, etas, base=base)


def sample_batch(config: ScenarioConfig, subkey: tuple[int, ...] = (),
                 quasi_shift: int = 0) -> SampleSet:
    """Draw n independent observations: the first n of the stream with the same keys."""
    return _draw(config, _noiseless(config), subkey, quasi_shift)


def _stream_rows(config: ScenarioConfig):
    """Endless rows of observations, formed a noise block at a time; the first n are
    sample_batch's rows."""
    base = _signal_row(_noiseless(config))
    for etas in _noise_blocks(config):
        yield from _form_rows(base, etas, config.observation_form)


def sample_stream(config: ScenarioConfig):
    """Endless generator of observations; its first n equal sample_batch's rows."""
    for row in _stream_rows(config):
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
        coeffs = rng.normals(config.noise.series_terms + 1)
        etas = iter(ou_integral_series(config.noise, noisy, coeffs, config.series_variant))

    def frames():
        for t in times:
            values = propagate(config.theta, config.op, t).evaluate_grid(config.grid_points)
            if t > 0 and noisy:
                eta = next(etas) if noise == NOISE_PATH else ou_integral_exact(config.noise, t, rng)
                values = GridSignal(values.half_period, values.values + eta)
            yield t, values

    return frames()
