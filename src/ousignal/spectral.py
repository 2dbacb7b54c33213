"""Constant-coefficient differential operator acting on trig polynomials.

The operator sum_n A_n d^n/dx^n preserves each two-dimensional mode subspace
span{cos(qx), sin(qx)} with q = k pi / l. Even derivatives contribute the
scalar rate sigma_k = sum_n (-1)^n A_{2n} q^{2n} and odd derivatives the
rotation rate omega_k = sum_n (-1)^n A_{2n+1} q^{2n+1}; in (c, d) coordinates
the action is the matrix [[sigma, omega], [-omega, sigma]], so the time-t
solution map scales each mode by exp(sigma_k t) and rotates it by omega_k t.
The constant mode is k = 0: q = 0 gives (sigma_0, omega_0) = (A_0, 0), and its
sine coefficient is zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GrowthOverflowError
from .fourier import FourierSignal

VALUE_CAP = 1e300

# exp() stays finite below this exponent; larger scale factors go through
# log space so that huge-factor-times-tiny-coefficient products stay exact
_SAFE_EXP = 700.0


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients A_0..A_{2m} of the operator, lowest order first."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 3 or len(coeffs) % 2 == 0:
            raise ValueError("coefficient list must have odd length >= 3 (orders 0..2m)")
        if not all(np.isfinite(coeffs)):
            raise ValueError("operator coefficients must be finite")
        if coeffs[0] <= 0:
            raise ValueError("zero-order coefficient A_0 must be strictly positive")

    @classmethod
    def of(cls, *coefficients: float) -> "OperatorSpec":
        """Build from loose coefficients, zero-padding to odd length >= 3."""
        coeffs = list(coefficients)
        while len(coeffs) < 3 or len(coeffs) % 2 == 0:
            coeffs.append(0.0)
        return cls(tuple(coeffs))

    @property
    def a0(self) -> float:
        return self.coefficients[0]


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Per-mode decay rate sigma_k and rotation frequency omega_k for k = 0..K.

    Row 0 is the constant mode: q_0 = 0 gives (sigma_0, omega_0) = (A_0, 0).
    """

    sigma: np.ndarray
    omega: np.ndarray


def mode_spectrum(op: OperatorSpec, mode_count: int, half_period: float) -> ModeSpectrum:
    """Rates (sigma_k, omega_k) for modes k = 0..mode_count.

    Raises FloatingPointError naming the first mode whose rate is not finite
    (the operator's terms overflow double precision there).
    """
    if mode_count < 0:
        raise ValueError("mode_count must be >= 0")
    q = np.arange(mode_count + 1) * (np.pi / half_period)
    sigma = np.zeros(mode_count + 1)
    omega = np.zeros(mode_count + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, a in enumerate(op.coefficients):
            if a == 0.0:
                continue
            half, rem = divmod(n, 2)
            term = ((-1.0) ** half) * a * q**n
            if rem == 0:
                sigma += term
            else:
                omega += term
    finite = np.isfinite(sigma) & np.isfinite(omega)
    if not finite.all():
        k = int(np.argmin(finite))
        raise FloatingPointError(
            f"mode {k} has a rate that is not finite (sigma_{k} = {sigma[k]:g}, "
            f"omega_{k} = {omega[k]:g}): the operator's terms overflow double precision")
    return ModeSpectrum(sigma=sigma, omega=omega)


def _rescale(rotated: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rotated)
    nz = rotated != 0.0
    direct = nz & (log_scale < _SAFE_EXP)
    out[direct] = np.exp(log_scale[direct]) * rotated[direct]
    big = nz & ~(log_scale < _SAFE_EXP)
    if np.any(big):
        out[big] = np.sign(rotated[big]) * np.exp(log_scale[big] + np.log(np.abs(rotated[big])))
    return out


@functools.lru_cache(maxsize=1)  # a command's frames, batches, trials, sigmas and rows share one
def _spectrum(op: OperatorSpec, mode_count: int, half_period: float) -> ModeSpectrum:
    """mode_spectrum's result, read-only, kept while it is the last one asked for."""
    spectrum = mode_spectrum(op, mode_count, half_period)
    spectrum.sigma.flags.writeable = spectrum.omega.flags.writeable = False
    return spectrum


def _solve(signal: FourierSignal, op: OperatorSpec, t: float, direction=1.0) -> FourierSignal:
    """The time-t map (direction 1) or its inverse (-1) over modes k = 0..K at once.

    Raises GrowthOverflowError naming the first mode whose coefficient would exceed
    VALUE_CAP (an infinite log factor on a nonzero coefficient included), then
    FloatingPointError naming the first mode whose rotation angle omega_k t is not finite.
    """
    if not 0 <= t < np.inf:  # the inverse runs the map backwards, never one over -t
        raise ValueError(f"propagation time must be non-negative and finite, got {t:g}")
    spectrum = _spectrum(op, signal.mode_count, signal.half_period)
    c = np.concatenate([[signal.c0], signal.c])
    d = np.concatenate([[0.0], signal.d])
    # a product past a float is +-inf, checked below; a zero coefficient takes any factor
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_scale = direction * (spectrum.sigma * t)
        angle = spectrum.omega * t
        exponent = log_scale + np.log(np.maximum(np.abs(c), np.abs(d)))
    over = exponent > np.log(VALUE_CAP)
    if np.any(over):
        k = int(np.argmax(over))
        raise GrowthOverflowError(k, float(exponent[k]), direction * t)
    if not np.isfinite(angle).all():
        k = int(np.argmin(np.isfinite(angle)))
        raise FloatingPointError(f"the solution map over t={direction * t:g} rotates mode {k} "
                                 f"by an angle that is not finite ({angle[k]:g})")
    cos, sin_a = np.cos(angle), direction * np.sin(angle)
    c_out = _rescale(c * cos + d * sin_a, log_scale)
    d_out = _rescale(d * cos - c * sin_a, log_scale)
    # rotating and _rescale leave every zero +0; below _SAFE_EXP a zero constant
    # term keeps its sign instead, as exp(A_0 t) * c0 does
    c0 = signal.c0 if signal.c0 == 0.0 and log_scale[0] < _SAFE_EXP else c_out[0]
    return FourierSignal(signal.half_period, c0, c_out[1:], d_out[1:])


def propagate(signal: FourierSignal, op: OperatorSpec, t: float) -> FourierSignal:
    """Apply the time-t solution map of d/dt = (operator) to the signal.

    Each mode k = 0..K is scaled by exp(sigma_k t) and rotated by omega_k t
    (the constant mode by exp(A_0 t) alone). Raises ValueError for a t that is
    negative or not finite, and GrowthOverflowError (a coefficient past VALUE_CAP)
    or FloatingPointError (a rotation angle past a float) naming the first mode.
    """
    return _solve(signal, op, t)


def inverse_propagate(signal: FourierSignal, op: OperatorSpec, t: float) -> FourierSignal:
    """Exact inverse of propagate: the solution map over -t, under the same overflow guard.

    Inverting strong damping amplifies whatever sits on a mode; the estimator
    zeroes the modes it cannot recover before it inverts.
    """
    return _solve(signal, op, t, -1.0)
