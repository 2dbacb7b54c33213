"""Operator spectrum and propagators, checked against symbolic and transport oracles."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ousignal import (
    FourierSignal,
    GrowthOverflowError,
    OperatorSpec,
    inverse_propagate,
    mode_spectrum,
    propagate,
    spectral,
    sup_distance,
)
from ousignal.csvio import write_spectrum_csv

from _util import example_theta, random_signal

PI = math.pi


def symbolic_mode_rates(coefficients, k, half_period):
    """Apply sum A_n d^n/dx^n to c*cos(qx) + d*sin(qx) symbolically."""
    x, c, d = sp.symbols("x c d")
    q = sp.Rational(k) * sp.pi / half_period
    f = c * sp.cos(q * x) + d * sp.sin(q * x)
    applied = sp.expand(sum(a * sp.diff(f, x, n) for n, a in enumerate(coefficients)))
    cos_part = applied.coeff(sp.cos(q * x))
    sin_part = applied.coeff(sp.sin(q * x))
    rate = cos_part.coeff(c)
    rotation = cos_part.coeff(d)
    assert sp.simplify(sin_part.coeff(d) - rate) == 0
    assert sp.simplify(sin_part.coeff(c) + rotation) == 0
    return float(rate), float(rotation)


def test_spectrum_zero_order_operator():
    spec = mode_spectrum(OperatorSpec.of(2.0), 6, PI)
    assert spec.sigma.shape == spec.omega.shape == (7,)
    assert np.allclose(spec.sigma, 2.0)
    assert np.allclose(spec.omega, 0.0)
    assert spec.sigma[0] == 2.0


def test_spectrum_first_order_operator():
    spec = mode_spectrum(OperatorSpec.of(2.0, -1.0), 5, PI)
    assert spec.sigma[5] == pytest.approx(2.0, abs=1e-12)
    assert spec.omega[5] == pytest.approx(-5.0, abs=1e-12)


def test_spectrum_second_order_operator():
    spec = mode_spectrum(OperatorSpec.of(1.0, 0.0, 1.0), 3, PI)
    assert spec.sigma[3] == pytest.approx(-8.0, abs=1e-12)
    assert spec.omega[3] == pytest.approx(0.0, abs=1e-12)


def test_spectrum_of_the_constant_mode_alone():
    spec = mode_spectrum(OperatorSpec.of(1.5, -2.0, 3.0), 0, PI)
    assert spec.sigma.tolist() == [1.5] and spec.omega.tolist() == [0.0]
    with pytest.raises(ValueError):
        mode_spectrum(OperatorSpec.of(1.5), -1, PI)


def closed_form_rates(coefficients, mode_count, half_period):
    """sigma_k and omega_k of modes k = 1..K, term by term in exact integer powers."""
    sigma, omega = [], []
    for k in range(1, mode_count + 1):
        q = k * math.pi / half_period
        sigma.append(sum((-1) ** (n // 2) * a * q**n for n, a in enumerate(coefficients)
                         if n % 2 == 0))
        omega.append(sum((-1) ** (n // 2) * a * q**n for n, a in enumerate(coefficients)
                         if n % 2 == 1))
    return np.array(sigma), np.array(omega)


@settings(max_examples=60, deadline=None)
@given(coefficients=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=6),
       a0=st.floats(0.01, 4.0), mode_count=st.integers(0, 12),
       half_period=st.floats(0.5, 8.0))
def test_spectrum_row_zero_is_the_constant_mode(coefficients, a0, mode_count, half_period):
    op = OperatorSpec.of(a0, *coefficients)
    spec = mode_spectrum(op, mode_count, half_period)
    assert (spec.sigma[0], spec.omega[0]) == (a0, 0.0)
    sigma, omega = closed_form_rates(op.coefficients, mode_count, half_period)
    scale = 1.0 + np.abs(sigma) + np.abs(omega)
    assert np.all(np.abs(spec.sigma[1:] - sigma) <= 1e-12 * scale)
    assert np.all(np.abs(spec.omega[1:] - omega) <= 1e-12 * scale)


@pytest.mark.parametrize("coefficients,half_period", [
    ((2.0, -1.0, 0.0), sp.pi),
    ((1.0, 0.0, 1.0), sp.pi),
    ((1.0, 2.0, 3.0, 4.0, 5.0), sp.pi),
    ((0.5, -2.0, 1.5), 2),
    ((3.0, 0.0, 0.0, 7.0, 0.0), 1),
])
def test_spectrum_matches_symbolic_oracle(coefficients, half_period):
    spec = mode_spectrum(OperatorSpec(tuple(coefficients)), 3, float(half_period))
    for k in (1, 2, 3):
        rate, rotation = symbolic_mode_rates(coefficients, k, half_period)
        assert spec.sigma[k] == pytest.approx(rate, rel=1e-12, abs=1e-12)
        assert spec.omega[k] == pytest.approx(rotation, rel=1e-12, abs=1e-12)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec((0.0, 1.0, 0.0))  # A_0 must be positive
    with pytest.raises(ValueError):
        OperatorSpec((1.0, 1.0))  # even length
    with pytest.raises(ValueError):
        OperatorSpec((1.0,))  # too short
    assert OperatorSpec.of(2.0).coefficients == (2.0, 0.0, 0.0)
    assert OperatorSpec.of(2.0, -1.0).coefficients == (2.0, -1.0, 0.0)


def test_propagate_at_zero_time_is_identity():
    s = example_theta()
    out = propagate(s, OperatorSpec.of(2.0, -1.0), 0.0)
    assert out.c0 == s.c0
    assert np.array_equal(out.c, s.c)
    assert np.array_equal(out.d, s.d)


def test_propagate_single_mode_rotation():
    # first-order operator: mode 1 coefficients spiral as exp(2t)(cos t, sin t)
    s = FourierSignal.build(PI, cos={1: 1.0})
    t = 0.73
    out = propagate(s, OperatorSpec.of(2.0, -1.0), t)
    assert out.c[0] == pytest.approx(math.exp(2 * t) * math.cos(t), rel=1e-12)
    assert out.d[0] == pytest.approx(math.exp(2 * t) * math.sin(t), rel=1e-12)


@pytest.mark.parametrize("t", [0.1, PI / 7, 1.0])
def test_propagate_matches_characteristics_oracle(t):
    # A_0 f + A_1 f' is solved by exp(A_0 t) * f(x + A_1 t)
    op = OperatorSpec.of(2.0, -1.0)
    rng = np.random.default_rng(5)
    for s in (example_theta(), random_signal(rng, PI, 20)):
        moved = propagate(s, op, t)
        xs = moved.evaluate_grid(4096)
        shifted = np.exp(2.0 * t) * s.evaluate(xs.grid - t)
        assert np.max(np.abs(xs.values - shifted)) < 1e-9


def test_transport_oracle_random_first_order_ops():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a0 = rng.uniform(0.2, 2.0)
        a1 = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.05, 0.8)
        op = OperatorSpec.of(a0, a1)
        s = random_signal(rng, PI, 12, scale=2.0)
        moved = propagate(s, op, t).evaluate_grid(4096)
        oracle = np.exp(a0 * t) * s.evaluate(moved.grid + a1 * t)
        assert np.max(np.abs(moved.values - oracle)) < 1e-9


def test_propagate_zero_rate_mode_is_frozen():
    # rates of (1, 0, 1): sigma_1 = 1 - 1 = 0, omega_1 = 0
    s = FourierSignal.build(PI, c0=2.0, cos={1: 1.0})
    out = propagate(s, OperatorSpec.of(1.0, 0.0, 1.0), 0.9)
    assert out.c[0] == pytest.approx(1.0, abs=1e-14)
    assert out.d[0] == pytest.approx(0.0, abs=1e-14)
    assert out.c0 == pytest.approx(2.0 * math.exp(0.9), rel=1e-14)


def test_inverse_propagate_roundtrip():
    op = OperatorSpec.of(2.0, -1.0)
    s = example_theta()
    t = PI / 7
    back = inverse_propagate(propagate(s, op, t), op, t)
    assert abs(back.c0 - s.c0) < 1e-10
    assert np.max(np.abs(back.c - s.c)) < 1e-10
    assert np.max(np.abs(back.d - s.d)) < 1e-10
    assert sup_distance(back, s) < 1e-10


def test_inverse_propagate_scalar_decay():
    s = FourierSignal.build(PI, c0=4.0)
    out = inverse_propagate(s, OperatorSpec.of(2.0), math.log(2.0) / 2.0)
    assert out.c0 == pytest.approx(2.0, rel=1e-14)


def test_inverse_propagate_at_zero_time_is_identity():
    s = example_theta()
    out = inverse_propagate(s, OperatorSpec.of(2.0, -1.0), 0.0)
    assert out.c0 == s.c0
    assert np.array_equal(out.c, s.c)


def test_semigroup_property():
    rng = np.random.default_rng(3)
    op = OperatorSpec.of(1.5, 0.7, -0.2)
    s = random_signal(rng, PI, 8, scale=2.0)
    for t1, t2 in [(0.1, 0.2), (0.05, 0.4), (0.3, 0.3)]:
        two_steps = propagate(propagate(s, op, t1), op, t2)
        one_step = propagate(s, op, t1 + t2)
        scale = max(1.0, np.max(np.abs(one_step.c)), np.max(np.abs(one_step.d)))
        assert np.max(np.abs(two_steps.c - one_step.c)) < 1e-10 * scale
        assert np.max(np.abs(two_steps.d - one_step.d)) < 1e-10 * scale
        assert abs(two_steps.c0 - one_step.c0) < 1e-10 * scale


def test_rotation_preserves_mode_radius():
    rng = np.random.default_rng(8)
    op = OperatorSpec.of(0.5, 2.0, -1.0)
    s = random_signal(rng, PI, 10, scale=3.0)
    t = 0.37
    spec = mode_spectrum(op, 10, PI)
    out = propagate(s, op, t)
    expected = np.hypot(s.c, s.d) ** 2 * np.exp(2.0 * spec.sigma[1:] * t)
    assert np.allclose(np.hypot(out.c, out.d) ** 2, expected, rtol=1e-12)


def test_time_derivative_matches_symbolically_applied_operator():
    # (propagate(s, h) - s) / h -> operator applied term by term, error O(h)
    coefficients = (1.0, -0.5, 0.3)
    rng = np.random.default_rng(21)
    s = random_signal(rng, PI, 3, scale=1.0)
    x = sp.symbols("x")
    expr = sp.Rational(1, 2) * s.c0
    for k in range(1, 4):
        expr += s.c[k - 1] * sp.cos(k * x) + s.d[k - 1] * sp.sin(k * x)
    applied = sum(a * sp.diff(expr, x, n) for n, a in enumerate(coefficients))
    oracle = sp.lambdify(x, applied, "numpy")
    op = OperatorSpec(coefficients)
    xs = np.linspace(-PI, PI, 64, endpoint=False)
    errors = []
    for h in (1e-3, 1e-4):
        fd = (propagate(s, op, h).evaluate(xs) - s.evaluate(xs)) / h
        errors.append(np.max(np.abs(fd - oracle(xs))))
    assert errors[0] < 0.05
    assert errors[1] < 0.2 * errors[0]  # first order in h


def test_propagate_overflow_guard_names_mode():
    s = FourierSignal.build(PI, cos={1: 15.0})
    with pytest.raises(GrowthOverflowError, match="mode 1"):
        propagate(s, OperatorSpec.of(2.0), 400.0)
    with pytest.raises(GrowthOverflowError, match="mode 0"):
        propagate(FourierSignal.build(PI, c0=1.0), OperatorSpec.of(2.0), 400.0)


def test_propagate_handles_huge_scale_with_tiny_coefficient():
    s = FourierSignal.build(PI, cos={1: 1e-280})
    out = propagate(s, OperatorSpec.of(2.0), 360.0)  # exp(720) alone overflows
    expected = math.exp(720.0 - 280.0 * math.log(10.0))
    assert np.isfinite(out.c[0])
    assert out.c[0] == pytest.approx(expected, rel=1e-12)


def test_inverse_overflow_guard_names_mode():
    op = OperatorSpec.of(1.0, 0.0, 1.0)  # sigma_2 = 1 - 4 = -3: the inverse grows mode 2
    s = FourierSignal.build(PI, cos={2: 1e305})
    with pytest.raises(GrowthOverflowError, match="t=-5 overflows at mode 2"):
        inverse_propagate(s, op, 5.0)
    # zero coefficients on the growing modes sail through
    quiet = FourierSignal.build(PI, cos={1: 1.0}, mode_count=20)
    out = inverse_propagate(quiet, op, 5.0)
    assert out.c[0] == pytest.approx(1.0, rel=1e-12)  # sigma_1 = 0
    assert np.all(out.c[1:] == 0.0)


@pytest.mark.parametrize("a0, t", [(2.0, 0.3), (0.5, 4.0), (1.0, 800.0)])
def test_constant_only_signal_scales_by_exp_a0_t(a0, t):
    op = OperatorSpec.of(a0, -1.0, 0.5)
    s = FourierSignal(PI, 1e-300, np.empty(0), np.empty(0))
    forward, back = propagate(s, op, t), inverse_propagate(s, op, t)
    assert forward.mode_count == back.mode_count == 0
    assert forward.c0 == pytest.approx(math.exp(math.log(1e-300) + a0 * t), rel=1e-12)
    assert back.c0 == pytest.approx(math.exp(math.log(1e-300) - a0 * t), rel=1e-12)
    for c0 in (3.0, -0.0, 0.0):  # exactly exp(+-A_0 t) c0, the sign of a zero included
        small = FourierSignal(PI, c0, np.empty(0), np.empty(0))
        for out, factor in ((propagate(small, op, 0.3), math.exp(a0 * 0.3)),
                            (inverse_propagate(small, op, 0.3), math.exp(-a0 * 0.3))):
            assert out.c0 == factor * c0
            assert math.copysign(1.0, out.c0) == math.copysign(1.0, c0)


def test_negative_time_rejected():
    s = example_theta()
    for t in (-0.1, math.nan, math.inf):  # a time that is not finite is refused too
        with pytest.raises(ValueError, match="non-negative and finite"):
            propagate(s, OperatorSpec.of(2.0), t)
        with pytest.raises(ValueError, match="non-negative and finite"):
            inverse_propagate(s, OperatorSpec.of(2.0), t)


_CHANNEL = st.tuples(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).map(tuple),  # A_1.. after A_0
    st.floats(0.1, 3.0), st.integers(1, 20), st.floats(0.5, 4.0), st.floats(0.0, 2.0))


def _outcome(run, signal, op, t):
    """The bits of run(signal, op, t), or the message of the overflow it raises."""
    try:
        out = run(signal, op, t)
    except GrowthOverflowError as exc:
        return str(exc)
    return np.concatenate([[out.c0], out.c, out.d]).tobytes()


@settings(max_examples=200, deadline=None)
@given(channels=st.lists(_CHANNEL, min_size=2, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_the_one_cached_spectrum_never_serves_a_stale_operator(channels, calls, seed):
    # propagate and inverse_propagate interleaved over several (A, K, l, t): each outcome is
    # the bits of the same call made on an empty cache
    rng = np.random.default_rng(seed)
    cases = [(OperatorSpec.of(a0, *rest), random_signal(rng, half_period, modes, 1.0), t)
             for rest, a0, modes, half_period, t in channels]
    for which, inverse in calls:
        op, signal, t = cases[which % len(cases)]
        run = inverse_propagate if inverse else propagate
        cached = _outcome(run, signal, op, t)
        spectral._spectrum.cache_clear()
        assert cached == _outcome(run, signal, op, t)
        spectrum = spectral._spectrum(op, signal.mode_count, signal.half_period)
        for rates in (spectrum.sigma, spectrum.omega):
            with pytest.raises(ValueError, match="read-only"):
                rates[0] = 1.0


def test_spectrum_csv(tmp_path):
    spec = mode_spectrum(OperatorSpec.of(2.0, -1.0), 3, PI)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,sigma,omega"
    assert lines[1] == "0,2,0"
    assert lines[2] == "1,2,-1"
    assert lines[4] == "3,2,-3"
