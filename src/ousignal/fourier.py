"""Truncated Fourier series on [-l, l): evaluation, quadrature, sup distance.

A signal is represented as c0/2 + sum_{k=1..K} c_k cos(k pi x / l) + d_k sin(k pi x / l).
The stored c0 is twice the constant term, so the same quadrature weight extracts
every coefficient. Grids are uniform and left-endpoint (x_G would alias x_0),
which makes the rectangle rule exact for trig polynomials once G >= 2K+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError

_PROBE_POINTS = 4096


def _grid_values(signal: FourierSignal, points: int) -> np.ndarray:
    """Values on the uniform left-endpoint grid of M points by one inverse real FFT.

    M is the smallest multiple of `points` that holds 2K+1 points, so every
    mode stays below the Nyquist frequency and the values are exact, not
    folded; every (M // points)-th value is the `points`-point grid. The grid
    starts at -l, which puts a (-1)^k phase on mode k.
    """
    size = points * -(-(2 * signal.mode_count + 1) // points)
    spectrum = 0.5 * np.concatenate([[signal.c0], signal.c - 1j * signal.d])
    spectrum[1::2] *= -1.0
    return np.fft.irfft(spectrum, size, norm="forward")


def _grid(half_period: float, points: int) -> np.ndarray:
    """The x values of the uniform left-endpoint grid of `points` points over [-l, l)."""
    return half_period * (2.0 * np.arange(points) / points - 1.0)


def _as_coeff_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} coefficients must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FourierSignal:
    """Immutable trig polynomial on [-half_period, half_period)."""

    half_period: float
    c0: float
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.half_period) and self.half_period > 0):
            raise ValueError("half_period must be a positive finite real")
        if not np.isfinite(self.c0):
            raise ValueError("c0 must be finite")
        object.__setattr__(self, "c", _as_coeff_array(self.c, "cosine"))
        object.__setattr__(self, "d", _as_coeff_array(self.d, "sine"))
        if self.c.shape != self.d.shape:
            raise ValueError("cosine and sine coefficient lists must have equal length")

    @classmethod
    def build(cls, half_period: float = np.pi, c0: float = 0.0,
              cos: dict[int, float] | None = None, sin: dict[int, float] | None = None,
              mode_count: int | None = None) -> "FourierSignal":
        """Assemble a signal from sparse {mode index: coefficient} maps, on [-pi, pi) by default."""
        cos = cos or {}
        sin = sin or {}
        indices = [*cos, *sin]
        top = max(indices, default=0)
        if mode_count is None:
            mode_count = top
        if top > mode_count:
            raise ValueError(f"coefficient index {top} exceeds mode_count {mode_count}")
        if min(indices, default=1) < 1:
            raise ValueError("mode indices start at 1; use c0 for the constant mode")
        c = np.zeros(mode_count)
        d = np.zeros(mode_count)
        for target, sparse in ((c, cos), (d, sin)):
            target[np.fromiter(sparse, np.intp, len(sparse)) - 1] = np.fromiter(
                sparse.values(), float, len(sparse))
        return cls(half_period, c0, c, d)

    @property
    def mode_count(self) -> int:
        return self.c.size

    def evaluate(self, x):
        """Value of the series at x (scalar or array); 2l-periodic in x."""
        x_arr = np.asarray(x, dtype=float)
        out = np.full(x_arr.shape, 0.5 * self.c0)
        if self.mode_count:
            k = np.arange(1, self.mode_count + 1)
            angles = np.multiply.outer(x_arr, k * (np.pi / self.half_period))
            out = out + np.cos(angles) @ self.c + np.sin(angles) @ self.d
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def evaluate_grid(self, grid_points: int) -> "GridSignal":
        """Sample onto the uniform left-endpoint grid of the given size."""
        if grid_points < 1:
            raise ValueError("grid_points must be >= 1")
        values = _grid_values(self, grid_points)
        return GridSignal(self.half_period, values[:: values.size // grid_points])

    def padded(self, mode_count: int) -> "FourierSignal":
        """Copy with zero-padded coefficients up to mode_count."""
        if mode_count < self.mode_count:
            raise ValueError("cannot pad to fewer modes than present")
        if mode_count == self.mode_count:
            return self
        extra = mode_count - self.mode_count
        return FourierSignal(self.half_period, self.c0,
                             np.concatenate([self.c, np.zeros(extra)]),
                             np.concatenate([self.d, np.zeros(extra)]))


@dataclass(frozen=True, eq=False)
class GridSignal:
    """Function values on the uniform left-endpoint grid over [-l, l)."""

    half_period: float
    values: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.half_period) and self.half_period > 0):
            raise ValueError("half_period must be a positive finite real")
        values = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if values.size < 1:
            raise ValueError("grid must hold at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def grid_points(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return _grid(self.half_period, self.grid_points)


def extract_coefficients(grid: GridSignal, mode_count: int) -> FourierSignal:
    """Recover Fourier coefficients by the periodic rectangle rule (one real FFT).

    Exact (to roundoff) for signals band-limited to mode_count once the grid
    has at least 2*mode_count + 1 points; coarser grids alias mode energy and
    are rejected.
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    points = grid.grid_points
    if points < 2 * mode_count + 1:
        raise AliasingError(
            f"{points} grid points cannot resolve {mode_count} modes without aliasing; "
            f"need at least {2 * mode_count + 1}"
        )
    spectrum = np.fft.rfft(grid.values)[: mode_count + 1] * (2.0 / points)
    spectrum[1::2] *= -1.0
    return FourierSignal(grid.half_period, spectrum[0].real, spectrum[1:].real,
                         -spectrum[1:].imag)


def sup_distance(a: FourierSignal, b: FourierSignal) -> float:
    """Largest pointwise gap between two Fourier signals.

    They are compared through their difference on a dense probe grid of 4096
    points, or the smallest multiple of 4096 that holds 2K+1, their
    coefficients zero-padded to one K and subtracted. The true sup of a trig
    polynomial has no closed form, and this is only a lower bound of it: at
    K = 2000 the probe has been measured 0.15 short.
    """
    if not (isinstance(a, FourierSignal) and isinstance(b, FourierSignal)):
        raise TypeError("sup_distance needs two FourierSignal inputs")
    if a.half_period != b.half_period:
        raise ValueError("half_period mismatch")
    k = max(a.mode_count, b.mode_count)
    a, b = a.padded(k), b.padded(k)
    gap = FourierSignal(a.half_period, a.c0 - b.c0, a.c - b.c, a.d - b.d)
    return float(np.max(np.abs(_grid_values(gap, _PROBE_POINTS))))
