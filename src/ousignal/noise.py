"""Gaussian drivers and the scalar Ornstein-Uhlenbeck channel noise.

The noise entering the channel is sigma * int_0^t exp(-+ a0 (t - tau)) dW(tau),
a scalar Gaussian whose variance and covariance are known in closed form. Two
samplers are provided: an exact one (a single Gaussian with the analytic
variance) and a Karhunen-Loeve series form driven by an explicit coefficient
vector, which also powers path animation. Drivers are either seeded
pseudo-random streams or deterministic quasi-random sequences built from
fractional parts of multiples of sqrt(prime).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GrowthOverflowError, KLDomainError

KERNEL_MEAN_REVERTING = "mean_reverting"
KERNEL_GROWTH = "growth"
VARIANT_VARIANCE_MATCHED = "variance_matched"
VARIANT_PAPER_FAITHFUL = "paper_faithful"

_SQRT2PI = math.sqrt(2.0 * math.pi)
_EPS = np.finfo(float).eps
_SAFE_LOG = 700.0

# Gaussians drawn at once (at least one sample's worth), so no draw or replay
# holds more than O(_BLOCK) memory whatever the count
_BLOCK = 1 << 14


@dataclass(frozen=True)
class NoiseParams:
    """Noise amplitude, kernel rate, kernel variant, and series truncation."""

    sigma: float
    a0: float
    kernel: str = KERNEL_MEAN_REVERTING
    series_terms: int = 999

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be a non-negative finite real")
        if not (np.isfinite(self.a0) and self.a0 > 0):
            raise ValueError("a0 must be a positive finite real")
        if self.kernel not in (KERNEL_MEAN_REVERTING, KERNEL_GROWTH):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.series_terms < 1:
            raise ValueError("series_terms must be >= 1")
        # sigma * sigma is sigma**2 but gives inf where ** would raise OverflowError
        if not math.isfinite(self.sigma * self.sigma / (2.0 * self.a0)):
            raise ValueError(f"sigma = {self.sigma:g} is too large: the noise variance scale "
                             f"sigma^2 / (2 a0) overflows")


# ---------------------------------------------------------------------------
# inverse standard normal CDF
#
# Acklam's rational approximation (relative error < 1.15e-9 over (0, 1))
# sharpened by one Halley step against erfc, which brings the result to
# near machine precision.

_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_SPLIT = 0.02425


_erfc = np.frompyfunc(math.erfc, 1, 1)  # numpy has no erfc; scipy stays a test-only dependency


def gaussian_inverse_cdf(p):
    """Quantile z with Phi(z) = p for the standard normal law, elementwise over arrays.

    A scalar p gives a float; an array gives an array of the same shape.
    """
    p = np.asarray(p, dtype=float)
    flat = np.atleast_1d(p)
    if not np.all((flat > 0.0) & (flat < 1.0)):
        raise ValueError("p must lie strictly between 0 and 1")
    low = flat < _ICDF_SPLIT
    high = flat > 1.0 - _ICDF_SPLIT
    q = np.sqrt(-2.0 * np.log(np.where(high, 1.0 - flat, flat)))
    tail = np.polyval(_ICDF_C, q) / np.polyval(_ICDF_D + (1.0,), q)
    q = flat - 0.5
    r = q * q
    central = np.polyval(_ICDF_A, r) * q / np.polyval(_ICDF_B + (1.0,), r)
    z = np.where(low, tail, np.where(high, -tail, central))
    # Halley step; skipped where exp(z^2 / 2) would overflow
    err = 0.5 * np.asarray(_erfc(-z / math.sqrt(2.0)), dtype=float) - flat
    u = err * _SQRT2PI * np.exp(np.minimum(0.5 * z * z, _SAFE_LOG))
    z = np.where(z * z < 2.0 * _SAFE_LOG, z - u / (1.0 + 0.5 * z * u), z)
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
    quasi mode replays quasi_gaussian(stream, j) for j = 1, 2, ... The pair
    (mode/key, counter) fully determines every draw.
    """

    PSEUDO = "pseudo"
    QUASI = "quasi"

    def __init__(self, mode: str, key: tuple[int, ...] = (0,), stream: int = 1,
                 counter: int = 0):
        if mode not in (self.PSEUDO, self.QUASI):
            raise ValueError(f"unknown RandomSource mode {mode!r}")
        if mode == self.QUASI and stream < 1:
            raise ValueError("quasi stream index starts at 1")
        self.mode = mode
        self.key = tuple(int(k) for k in key)
        self.stream = int(stream)
        self.counter = int(counter)
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
            for start in range(0, self.counter, _BLOCK):  # replayed a block at a time
                self._gen.standard_normal(min(_BLOCK, self.counter - start))
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

    def _row(self, r: int, width: int) -> "RandomSource":
        """A new source whose draws are row r of blocks(rows, width) taken from here:
        the same stream resumed r * width draws on (pseudo), or stream + r (quasi)."""
        if self.mode == self.PSEUDO:
            return RandomSource(self.PSEUDO, self.key, counter=self.counter + r * width)
        return RandomSource(self.QUASI, stream=self.stream + r, counter=self.counter)

    def __repr__(self):
        ident = f"key={self.key}" if self.mode == self.PSEUDO else f"stream={self.stream}"
        return f"RandomSource({self.mode}, {ident}, counter={self.counter})"


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


def ou_integral_series(params: NoiseParams, t0: float, coeffs,
                       variant: str = VARIANT_VARIANCE_MATCHED,
                       enforce_domain: bool = True) -> float:
    """Series form of the noise draw, built from an explicit coefficient vector (or matrix rows).

    The stochastic integral is a time-changed Brownian motion evaluated at
    u = exp(2 a0 t0) - 1; the sine-series path expansion representing it is
    valid only for u in [0, 1]. Larger u is rejected unless enforce_domain is
    switched off, in which case the (wrong-variance) value is still computed,
    with a warning, for faithful reproduction of legacy outputs.

    variance_matched uses the prefactor sigma / sqrt(2 a0) e^{-a0 t0}, whose
    variance agrees with noise_variance; paper_faithful replaces it with
    sigma / (2 a0) e^{-a0 t0}, kept for bit-level reproduction of the
    original formula. Their outputs differ by the exact factor sqrt(2 a0).
    """
    if t0 < 0:
        raise ValueError("t0 must be non-negative")
    if params.kernel != KERNEL_MEAN_REVERTING:
        raise ValueError("the series sampler is defined for the mean_reverting kernel only")
    if variant not in (VARIANT_VARIANCE_MATCHED, VARIANT_PAPER_FAITHFUL):
        raise ValueError(f"unknown series variant {variant!r}")
    u = _grown(1.0, math.expm1, 2.0 * params.a0 * t0, t0)
    if u > 1.0:
        if enforce_domain:
            raise KLDomainError(
                f"time-changed argument u = exp(2 a0 t0) - 1 = {u:.6g} exceeds 1; the "
                "sine-series expansion is not a Brownian representation there "
                "(pass enforce_domain=False to evaluate anyway)"
            )
        warnings.warn(f"evaluating the noise series outside its validity interval (u={u:.6g} > 1); "
                      "sample variance will not match the analytic formula")
    if variant == VARIANT_VARIANCE_MATCHED:
        prefactor = params.sigma / math.sqrt(2.0 * params.a0)
    else:
        prefactor = params.sigma / (2.0 * params.a0)
    return prefactor * math.exp(-params.a0 * t0) * _kl_sum(coeffs, u)


def ou_joint_pairs(params: NoiseParams, s: float, t: float, count: int,
                   rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint draws (noise(s), noise(t)) sharing one driving path.

    Uses the Markov decomposition: the later value is the earlier one decayed
    (or grown) plus an independent increment. Draws rng.blocks(2, count): the
    first row for the earlier time, the second for the increment.
    """
    if s < 0 or t < 0:
        raise ValueError("times must be non-negative")
    swap = s > t
    if swap:
        s, t = t, s
    early, late = _markov_step(params, s, t, *rng.blocks(2, count))
    return (late, early) if swap else (early, late)


def _markov_step(params: NoiseParams, s: float, t: float, g_early: np.ndarray,
                 g_inc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(noise(s), noise(t)) for s <= t from the early draws and the increment draws."""
    early = math.sqrt(noise_variance(params, s)) * g_early
    if params.kernel == KERNEL_MEAN_REVERTING:
        carry = math.exp(-params.a0 * (t - s))
    else:
        carry = _grown(1.0, math.exp, params.a0 * (t - s), t)
    late = carry * early + math.sqrt(noise_variance(params, t - s)) * g_inc
    return early, late
