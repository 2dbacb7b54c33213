"""Gaussian drivers and the scalar Ornstein-Uhlenbeck channel noise.

The noise enters the constant mode, as that of a linear SDE: growth is the noise
sigma * int_0^t exp(a0 (t - tau)) dW(tau) of dc = a0 c dt + sigma dW, the constant mode
of the SDE in PAPER.md; mean_reverting (the default) is the noise
sigma * int_0^t exp(-a0 (t - tau)) dW(tau) of d eta = -a0 eta dt + sigma dW, so an
observation is the signal of the first SDE plus the noise of another. Each noise is
prefactor(t) W(clock(t)) for a Brownian motion W: sigma / sqrt(2 a0) exp(a0 t) on the
clock 1 - exp(-2 a0 t) (growth), sigma / sqrt(2 a0) exp(-a0 t) on exp(2 a0 t) - 1
(mean_reverting). Two samplers are provided: an exact one (a single Gaussian with the
analytic variance; variance and covariance are known in closed form) and a
Karhunen-Loeve series form of W driven by an explicit coefficient vector, which also
powers path animation. Drivers are either seeded pseudo-random streams or deterministic
quasi-random sequences built from fractional parts of multiples of sqrt(prime).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GrowthOverflowError

KERNELS = ("mean_reverting", "growth")
KERNEL_MEAN_REVERTING, KERNEL_GROWTH = KERNELS
VARIANTS = ("variance_matched", "paper_faithful")
VARIANT_VARIANCE_MATCHED, VARIANT_PAPER_FAITHFUL = VARIANTS

_EPS = np.finfo(float).eps

# doubles drawn at once (at least one row's worth), so no draw or fold holds more
# than O(_BLOCK) memory whatever the count
_BLOCK = 1 << 14


def _block_sizes(count: int, width: int = 1):
    """Row counts of the blocks, at most max(1, _BLOCK // width) rows of width values, that
    make up count rows. Every blocked loop of the package takes its sizes from here, but the
    samples reader's endless one."""
    step, done = max(1, _BLOCK // width), 0
    while done < count:
        rows = min(step, count - done)
        yield rows
        done += rows


@dataclass(frozen=True, kw_only=True)
class NoiseParams:
    """Noise amplitude, kernel rate, kernel variant, and series truncation; keyword-only."""

    sigma: float = 0.0
    a0: float
    kernel: str = KERNEL_MEAN_REVERTING
    series_terms: int = 999

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be a non-negative finite real")
        if not (np.isfinite(self.a0) and self.a0 > 0):
            raise ValueError("a0 must be a positive finite real")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.series_terms < 1:
            raise ValueError("series_terms must be >= 1")
        # sigma * sigma is sigma**2 but gives inf where ** would raise OverflowError
        if not math.isfinite(self.sigma * self.sigma / (2.0 * self.a0)):
            raise ValueError(f"sigma = {self.sigma:g} is too large: the noise variance scale "
                             f"sigma^2 / (2 a0) overflows")


# ---------------------------------------------------------------------------
# inverse standard normal CDF


def gaussian_inverse_cdf(p):
    """Quantile z with Phi(z) = p for the standard normal law, elementwise over arrays.

    A scalar p gives a float; an array gives an array of the same shape. The values are
    the standard library's NormalDist().inv_cdf (Wichura's AS241), computed one at a time
    in double arithmetic, so their bits do not depend on numpy's CPU kernels.
    """
    # imported here, not at module level: only quasi draws reach this, and the statistics
    # module adds about 0.4 MB to the peak memory of every run that draws none
    from statistics import NormalDist

    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    # NormalDist checks 0 < p < 1 itself, but lets NaN through
    if not np.all((flat > 0.0) & (flat < 1.0)):
        raise ValueError("p must lie strictly between 0 and 1")
    z = np.fromiter(map(NormalDist().inv_cdf, flat.tolist()), float, flat.size)
    return float(z[0]) if p.ndim == 0 else z.reshape(p.shape)


# ---------------------------------------------------------------------------
# quasi-random Gaussian sequence

_sieve_primes = np.array([2, 3, 5, 7, 11, 13])


def nth_prime(index):
    """The index-th prime (1-based: nth_prime(1) == 2), via a growing sieve; elementwise over arrays."""
    global _sieve_primes
    index = np.asarray(index)
    if np.any(index < 1):
        raise ValueError("prime index starts at 1")
    while _sieve_primes.size < np.max(index, initial=1):
        limit = max(32, 2 * int(_sieve_primes[-1]))
        is_prime = np.ones(limit + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if is_prime[p]:
                is_prime[p * p:: p] = False
        _sieve_primes = np.nonzero(is_prime)[0]
    primes = _sieve_primes[index - 1]
    return int(primes) if primes.ndim == 0 else primes


def quasi_gaussian(stream, index):
    """Deterministic standard-normal stand-in: Phi^-1 of {index * sqrt(p_stream)}.

    Broadcasts over arrays of streams and indices. The fractional parts of
    multiples of an irrational are equidistributed, so each stream has
    standard normal empirical law. An exactly integral multiple (measure
    zero, impossible for sqrt of a prime in exact arithmetic) is clamped away
    from the endpoints and logged.
    """
    stream, index = np.asarray(stream), np.asarray(index)
    if np.any(stream < 1) or np.any(index < 1):
        raise ValueError("stream and index are 1-based positive integers")
    u = np.mod(index * np.sqrt(nth_prime(stream)), 1.0)
    if np.any((u <= 0.0) | (u >= 1.0)):
        warnings.warn("a fractional part hit an endpoint; clamping by machine epsilon")
        u = np.clip(u, _EPS, 1.0 - _EPS)
    return gaussian_inverse_cdf(u)


class RandomSource:
    """Deterministic Gaussian stream with a draw counter.

    pseudo mode wraps numpy's PCG64 seeded by the key path (seed, path...);
    quasi mode reads quasi_gaussian(stream, j) for j = 1, 2, ... The pair
    (mode/key, counter) fully determines every draw.
    """

    PSEUDO = "pseudo"
    QUASI = "quasi"

    def __init__(self, mode: str, key: tuple[int, ...] = (0,), stream: int = 1):
        if mode not in (self.PSEUDO, self.QUASI):
            raise ValueError(f"unknown RandomSource mode {mode!r}")
        if mode == self.QUASI and stream < 1:
            raise ValueError("quasi stream index starts at 1")
        self.mode = mode
        self.key = tuple(int(k) for k in key)
        self.stream = int(stream)
        self.counter = 0
        self._gen = None

    @classmethod
    def pseudo(cls, seed: int, *path: int) -> "RandomSource":
        return cls(cls.PSEUDO, key=(int(seed), *path))

    @classmethod
    def quasi(cls, stream: int) -> "RandomSource":
        return cls(cls.QUASI, stream=stream)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.default_rng(self.key)
        return self._gen

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def normals(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.mode == self.PSEUDO:
            values = self._generator().standard_normal(count)
        else:
            values = quasi_gaussian(self.stream, np.arange(self.counter + 1, self.counter + count + 1))
        self.counter += count
        return values

    def blocks(self, rows: int, width: int) -> np.ndarray:
        """A (rows, width) array of Gaussians whose rows are independent draws.

        Pseudo rows are consecutive stretches of the stream. Quasi row r is
        stream + r from the current index on, and the source then moves past
        those streams: a later stretch of one Weyl sequence is a shifted copy
        of an earlier one, so it cannot serve as an independent row.
        """
        if self.mode == self.PSEUDO:
            return self.normals(rows * width).reshape(rows, width)
        streams = self.stream + np.arange(rows)[:, None]
        values = quasi_gaussian(streams, np.arange(self.counter + 1, self.counter + width + 1))
        self.stream += rows
        return values


# ---------------------------------------------------------------------------
# Karhunen-Loeve Brownian path and OU integrals


def _kl_sum(coeffs: np.ndarray, s: float):
    """x_0 s + sqrt(2) sum_n x_n sin(pi n s) / (pi n); one value per coefficient row."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] < 1:
        raise ValueError("coefficients must be a non-empty vector or a matrix of such rows")
    n = np.arange(1, coeffs.shape[-1])
    # a row-wise sum, not a matrix product: a row's value must not depend on
    # how many rows are evaluated with it
    tail = np.sum(coeffs[..., 1:] * np.sin(np.pi * n * s) / (np.pi * n), axis=-1)
    return coeffs[..., 0] * s + math.sqrt(2.0) * tail


def _grown(scale: float, grow, exponent: float, t: float) -> float:
    """scale * grow(exponent), where grow is math.exp or math.expm1 of a growth exponent.

    Raises GrowthOverflowError (on the constant mode, where the noise enters)
    where the value would overflow a float.
    """
    try:
        value = scale * grow(exponent)
    except OverflowError:
        value = math.inf if scale else 0.0
    if math.isinf(value):
        raise GrowthOverflowError(0, exponent + math.log(scale), t)
    return value


def noise_variance(params: NoiseParams, t: float) -> float:
    """Variance of the accumulated channel noise at time t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    scale = params.sigma**2 / (2.0 * params.a0)
    if params.kernel == KERNEL_MEAN_REVERTING:
        return scale * (-math.expm1(-2.0 * params.a0 * t))
    return _grown(scale, math.expm1, 2.0 * params.a0 * t, t)


def noise_covariance(params: NoiseParams, s: float, t: float) -> float:
    """Covariance of the channel noise between times s and t."""
    if s < 0 or t < 0:
        raise ValueError("times must be non-negative")
    if s > t:
        s, t = t, s
    scale = params.sigma**2 / (2.0 * params.a0)
    if params.kernel == KERNEL_MEAN_REVERTING:
        return scale * (math.exp(-params.a0 * (t - s)) - math.exp(-params.a0 * (t + s)))
    return _grown(scale, math.exp, params.a0 * (s + t), t) * (-math.expm1(-2.0 * params.a0 * s))


def ou_integral_exact(params: NoiseParams, t0: float, rng: RandomSource) -> float:
    """One exact draw of the noise at time t0; consumes exactly one Gaussian."""
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    g = rng.normal()
    return math.sqrt(noise_variance(params, t0)) * g


def ou_integral_series(params: NoiseParams, t0, coeffs,
                       variant: str = VARIANT_VARIANCE_MATCHED):
    """Series form of the noise at t0, a time or a vector of times, from an explicit
    coefficient vector (or matrix rows): one Brownian path per row, read at every time.

    The noise is prefactor(t) W(clock(t)), the kernel's pair (module docstring), with W read
    on one clock [0, U], U = max(1, the largest clock), as sqrt(U) B(clock / U) for the sine
    series B on [0, 1]: for U = 1, B itself, bit for bit. Shape coeffs.shape[:-1] + t0's shape.
    A clock or prefactor past a float raises GrowthOverflowError. paper_faithful divides sigma
    by 2 a0, not sqrt(2 a0), as the original formula did, under either kernel.
    """
    times = np.asarray(t0, dtype=float)
    times_list = times.reshape(-1).tolist()
    if times.ndim > 1 or any(t < 0 for t in times_list):
        raise ValueError("t0 must be a non-negative time or a vector of such times")
    if variant not in VARIANTS:
        raise ValueError(f"unknown series variant {variant!r}")
    if variant == VARIANT_VARIANCE_MATCHED:
        scale = params.sigma / math.sqrt(2.0 * params.a0)
    else:
        scale = params.sigma / (2.0 * params.a0)
    if params.kernel == KERNEL_MEAN_REVERTING:
        prefactor = [scale * math.exp(-params.a0 * t) for t in times_list]
        clock = [_grown(1.0, math.expm1, 2.0 * params.a0 * t, t) for t in times_list]
    else:
        prefactor = [_grown(scale, math.exp, params.a0 * t, t) for t in times_list]
        clock = [-math.expm1(-2.0 * params.a0 * t) for t in times_list]
    span = max([1.0, *clock])
    values = [p * (math.sqrt(span) * _kl_sum(coeffs, c / span)) for p, c in zip(prefactor, clock)]
    if times.ndim == 0:
        return values[0]
    return np.stack(values, axis=-1) if values else np.empty(np.shape(coeffs)[:-1] + (0,))


def ou_joint_pairs(params: NoiseParams, s: float, t: float, count: int,
                   rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint draws (noise(s), noise(t)) sharing one driving path, rng.blocks(2, count)
    driving them: the Markov step of _markov_pair on its two rows."""
    if s < 0 or t < 0 or count < 0:
        raise ValueError("times and count must be non-negative")
    early, late = _markov_pair(params, min(s, t), max(s, t), *rng.blocks(2, count))
    return (late, early) if s > t else (early, late)


def _markov_pair(params: NoiseParams, s: float, t: float, early: np.ndarray,
                 increment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint draws (noise(s), noise(t)), s <= t, by the Markov decomposition: the later value
    is the earlier one decayed (or grown) plus an independent increment. The Gaussian arrays
    early and increment drive the earlier value and the increment, element by element, so
    pairs formed a block at a time are those formed at once."""
    first = math.sqrt(noise_variance(params, s)) * early
    gap = params.a0 * (t - s)
    carry = math.exp(-gap) if params.kernel == KERNEL_MEAN_REVERTING else _grown(1.0, math.exp, gap, t)
    return first, carry * first + math.sqrt(noise_variance(params, t - s)) * increment
