"""Constant-coefficient differential operator acting on trig polynomials.

The operator sum_n A_n d^n/dx^n preserves each two-dimensional mode subspace
span{cos(qx), sin(qx)} with q = k pi / l. Even derivatives contribute the
scalar rate sigma_k = sum_n (-1)^n A_{2n} q^{2n} and odd derivatives the
rotation rate omega_k = sum_n (-1)^n A_{2n+1} q^{2n+1}; in (c, d) coordinates
the action is the matrix [[sigma, omega], [-omega, sigma]], so the time-t
solution map scales each mode by exp(sigma_k t) and rotates it by omega_k t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmplificationError, GrowthOverflowError
from .fourier import FourierSignal

VALUE_CAP = 1e300
AMPLIFICATION_CAP = 1e12

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
    """Per-mode decay rate and rotation frequency, plus the constant-mode rate."""

    sigma0: float
    sigma: np.ndarray
    omega: np.ndarray


def mode_spectrum(op: OperatorSpec, mode_count: int, half_period: float) -> ModeSpectrum:
    """Rates (sigma_k, omega_k) for modes k = 1..mode_count.

    Raises FloatingPointError naming the first mode whose rate is not finite
    (the operator's terms overflow double precision there).
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    q = np.arange(1, mode_count + 1) * (np.pi / half_period)
    sigma = np.zeros(mode_count)
    omega = np.zeros(mode_count)
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
        k = int(np.argmin(finite)) + 1
        raise FloatingPointError(
            f"mode {k} has a rate that is not finite (sigma_{k} = {sigma[k - 1]:g}, "
            f"omega_{k} = {omega[k - 1]:g}): the operator's terms overflow double precision")
    return ModeSpectrum(sigma0=op.a0, sigma=sigma, omega=omega)


def _rescale(rotated: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rotated)
    nz = rotated != 0.0
    direct = nz & (log_scale < _SAFE_EXP)
    out[direct] = np.exp(log_scale[direct]) * rotated[direct]
    big = nz & ~(log_scale < _SAFE_EXP)
    if np.any(big):
        out[big] = np.sign(rotated[big]) * np.exp(log_scale[big] + np.log(np.abs(rotated[big])))
    return out


def _transform(signal: FourierSignal, log0: float, log_scale: np.ndarray,
               angle: np.ndarray) -> FourierSignal:
    if log0 < _SAFE_EXP:
        c0 = np.exp(log0) * signal.c0
    else:
        c0 = 0.0 if signal.c0 == 0.0 else np.sign(signal.c0) * np.exp(log0 + np.log(abs(signal.c0)))
    if signal.mode_count == 0:
        return FourierSignal(signal.half_period, c0, signal.c, signal.d)
    cos_a = np.cos(angle)
    sin_a = np.sin(angle)
    c_rot = signal.c * cos_a + signal.d * sin_a
    d_rot = signal.d * cos_a - signal.c * sin_a
    return FourierSignal(signal.half_period, c0,
                         _rescale(c_rot, log_scale), _rescale(d_rot, log_scale))


def propagate(signal: FourierSignal, op: OperatorSpec, t: float) -> FourierSignal:
    """Apply the time-t solution map of d/dt = (operator) to the signal.

    Each mode is scaled by exp(sigma_k t) and rotated by omega_k t; the
    constant mode scales by exp(A_0 t). Raises GrowthOverflowError naming the
    first mode whose coefficient would exceed VALUE_CAP.
    """
    if t < 0:
        raise ValueError("propagation time must be non-negative")
    log_cap = np.log(VALUE_CAP)
    if signal.c0 != 0.0 and op.a0 * t + np.log(abs(signal.c0)) > log_cap:
        raise GrowthOverflowError(0, op.a0 * t + np.log(abs(signal.c0)), t)
    if signal.mode_count == 0:
        return _transform(signal, op.a0 * t, np.empty(0), np.empty(0))
    spectrum = mode_spectrum(op, signal.mode_count, signal.half_period)
    radius = np.maximum(np.abs(signal.c), np.abs(signal.d))
    with np.errstate(divide="ignore"):
        exponent = spectrum.sigma * t + np.log(radius)
    over = exponent > log_cap
    if np.any(over):
        k = int(np.argmax(over)) + 1
        raise GrowthOverflowError(k, float(exponent[k - 1]), t)
    return _transform(signal, op.a0 * t, spectrum.sigma * t, spectrum.omega * t)


def inverse_propagate(signal: FourierSignal, op: OperatorSpec, t: float) -> FourierSignal:
    """Exact inverse of propagate: scale mode k by exp(-sigma_k t), rotate by -omega_k t.

    Modes with nonzero coefficients whose inverse factor exceeds
    AMPLIFICATION_CAP are rejected (inverting strong damping amplifies
    numerical noise); zero coefficients pass through untouched.
    """
    if t < 0:
        raise ValueError("propagation time must be non-negative")
    if signal.mode_count == 0:
        return _transform(signal, -op.a0 * t, np.empty(0), np.empty(0))
    spectrum = mode_spectrum(op, signal.mode_count, signal.half_period)
    log_cap = np.log(AMPLIFICATION_CAP)
    nonzero = (signal.c != 0.0) | (signal.d != 0.0)
    over = nonzero & (-spectrum.sigma * t > log_cap)
    if np.any(over):
        k = int(np.argmax(over)) + 1
        raise AmplificationError(k, float(-spectrum.sigma[k - 1] * t), AMPLIFICATION_CAP)
    return _transform(signal, -op.a0 * t, -spectrum.sigma * t, -spectrum.omega * t)
