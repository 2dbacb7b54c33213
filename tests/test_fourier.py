"""Fourier representation: evaluation, quadrature extraction, sup distance."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ousignal import AliasingError, FourierSignal, GridSignal, extract_coefficients, sup_distance

from _util import example_theta, random_signal


def test_evaluate_constant_signal():
    s = FourierSignal.build(math.pi, c0=1.0)
    assert s.evaluate(0.37) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_example_preset_at_origin():
    # 0.5 + 5*cos(0) + 5*sin(0)
    assert example_theta().evaluate(0.0) == pytest.approx(5.5, abs=1e-12)


def test_evaluate_two_term_hand_value():
    # 2*cos(3 * pi/3) = 2*cos(pi) = -2
    s = FourierSignal.build(math.pi, cos={3: 2.0})
    assert s.evaluate(math.pi / 3) == pytest.approx(-2.0, abs=1e-12)


def test_evaluate_accepts_arrays():
    s = example_theta()
    xs = np.linspace(-math.pi, math.pi, 13)
    values = s.evaluate(xs)
    assert values.shape == xs.shape
    assert values[6] == pytest.approx(s.evaluate(xs[6]), abs=1e-14)


def test_evaluate_grid_constant():
    grid = FourierSignal.build(math.pi, c0=2.0).evaluate_grid(4)
    assert np.allclose(grid.values, 1.0)


def test_evaluate_grid_single_cosine():
    grid = FourierSignal.build(math.pi, cos={1: 1.0}).evaluate_grid(4)
    # x_g = -pi, -pi/2, 0, pi/2
    assert np.allclose(grid.values, [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_evaluate_grid_matches_pointwise():
    # grids coarser than 2K+1 = 41 points get exact values, not folded ones
    for s in (example_theta(), random_signal(np.random.default_rng(5), math.pi, 20, scale=1.0)):
        for points in (200, 32, 7, 1):
            grid = s.evaluate_grid(points)
            direct = np.array([s.evaluate(x) for x in grid.grid])
            assert np.max(np.abs(grid.values - direct)) < 1e-12


def test_extract_constant_grid():
    grid = GridSignal(math.pi, np.full(16, 3.0))
    coeffs = extract_coefficients(grid, 2)
    assert coeffs.c0 == pytest.approx(6.0, abs=1e-13)
    assert np.max(np.hypot(coeffs.c, coeffs.d)) < 1e-13


def test_extract_recovers_example_preset():
    coeffs = extract_coefficients(example_theta().evaluate_grid(200), 20)
    assert coeffs.c[0] == pytest.approx(5.0, abs=1e-10)
    assert coeffs.d[4] == pytest.approx(5.0, abs=1e-10)
    rest = np.hypot(coeffs.c, coeffs.d)
    rest[[0, 4]] = 0.0
    assert np.max(rest) < 1e-10
    assert coeffs.c0 == pytest.approx(1.0, abs=1e-10)


def test_extract_cos3_on_minimal_grid():
    s = FourierSignal.build(math.pi, cos={3: 1.0})
    grid = s.evaluate_grid(7)
    coeffs = extract_coefficients(grid, 3)
    # brute-force inner products, plain python
    xs = [-math.pi + 2 * math.pi * g / 7 for g in range(7)]
    for k in (1, 2, 3):
        ck = 2 / 7 * sum(math.cos(3 * x) * math.cos(k * x) for x in xs)
        dk = 2 / 7 * sum(math.cos(3 * x) * math.sin(k * x) for x in xs)
        assert coeffs.c[k - 1] == pytest.approx(ck, abs=1e-12)
        assert coeffs.d[k - 1] == pytest.approx(dk, abs=1e-12)
    assert coeffs.c[2] == pytest.approx(1.0, abs=1e-12)
    assert abs(coeffs.d[2]) < 1e-12
    assert np.max(np.hypot(coeffs.c[:2], coeffs.d[:2])) < 1e-12


def test_extract_rejects_aliasing_grid():
    grid = FourierSignal.build(math.pi, cos={1: 1.0}).evaluate_grid(40)
    with pytest.raises(AliasingError):
        extract_coefficients(grid, 20)
    extract_coefficients(grid, 19)  # 2*19+1 = 39 <= 40 is fine


@settings(max_examples=60, deadline=None)
@given(
    mode_count=st.integers(0, 8),
    pad=st.integers(0, 9),
    seed=st.integers(0, 2**31),
    half_period=st.sampled_from([1.0, 2.5, math.pi]),
)
def test_roundtrip_extract_after_sampling(mode_count, pad, seed, half_period):
    rng = np.random.default_rng(seed)
    s = random_signal(rng, half_period, mode_count)
    grid_points = 2 * mode_count + 1 + pad
    k = max(mode_count, 1)
    if grid_points < 2 * k + 1:
        grid_points = 2 * k + 1
    back = extract_coefficients(s.evaluate_grid(grid_points), k)
    assert back.c0 == pytest.approx(s.c0, abs=1e-10)
    padded = s.padded(k)
    assert np.max(np.abs(back.c - padded.c)) < 1e-10
    assert np.max(np.abs(back.d - padded.d)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-10 * math.pi, 10 * math.pi), seed=st.integers(0, 2**31))
def test_evaluate_is_periodic(x, seed):
    rng = np.random.default_rng(seed)
    s = random_signal(rng, math.pi, mode_count=5, scale=1.0)
    assert s.evaluate(x) == pytest.approx(s.evaluate(x + 2 * math.pi), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(-3, 3),
    beta=st.floats(-3, 3),
    x=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**31),
)
def test_evaluate_is_linear(alpha, beta, x, seed):
    rng = np.random.default_rng(seed)
    s = random_signal(rng, math.pi, 6, scale=1.0)
    r = random_signal(rng, math.pi, 6, scale=1.0)
    combined = FourierSignal(math.pi, alpha * s.c0 + beta * r.c0, alpha * s.c + beta * r.c,
                             alpha * s.d + beta * r.d)
    expected = alpha * s.evaluate(x) + beta * r.evaluate(x)
    assert combined.evaluate(x) == pytest.approx(expected, abs=1e-12)


def test_sup_distance_identical_is_zero():
    s = example_theta()
    assert sup_distance(s, s) == 0.0


def test_sup_distance_constant_offset():
    a = FourierSignal.build(math.pi, c0=2.0)
    b = FourierSignal.build(math.pi, c0=0.0)
    assert sup_distance(a, b) == pytest.approx(1.0, abs=1e-15)


def test_sup_distance_cos_vs_sin():
    a = FourierSignal.build(math.pi, cos={1: 1.0})
    b = FourierSignal.build(math.pi, sin={1: 1.0})
    # max |cos x - sin x| = sqrt(2), attained inside the probe grid
    assert sup_distance(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_sup_distance_probe_grows_with_mode_count():
    # mode 3000 peaks at 1 halfway between the points of the 4096-point grid
    phase = math.pi / 512
    a = FourierSignal.build(math.pi, cos={3000: math.cos(phase)}, sin={3000: -math.sin(phase)})
    zero = FourierSignal.build(math.pi)
    xs = math.pi * (2.0 * np.arange(4096) / 4096 - 1.0)
    on_4096 = max(np.max(np.abs(a.evaluate(chunk))) for chunk in np.split(xs, 16))
    assert on_4096 < 1.0 - 1e-5
    assert sup_distance(a, zero) >= on_4096
    assert sup_distance(a, zero) == pytest.approx(1.0, abs=1e-12)


def test_wideband_transforms_are_exact_in_little_memory():
    # K = 2000 on G = 4001: (G, K) cos/sin tables would take 128 MB
    s = random_signal(np.random.default_rng(11), math.pi, 2000)
    tracemalloc.start()
    try:
        back = extract_coefficients(s.evaluate_grid(4001), 2000)
        gap = sup_distance(back, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(back.c0 - s.c0) < 1e-10
    assert np.max(np.abs(back.c - s.c)) < 1e-10
    assert np.max(np.abs(back.d - s.d)) < 1e-10
    assert gap < 1e-10


def test_sup_distance_rejects_mismatches():
    with pytest.raises(ValueError):
        sup_distance(FourierSignal.build(1.0, c0=1.0), FourierSignal.build(2.0, c0=1.0))
    with pytest.raises(TypeError):
        sup_distance(FourierSignal.build(1.0, c0=1.0), GridSignal(1.0, np.zeros(4)))


def test_sup_distance_metric_axioms():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a, b, c = (random_signal(rng, math.pi, 6) for _ in range(3))
        dab, dba = sup_distance(a, b), sup_distance(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= sup_distance(a, c) + sup_distance(c, b) + 1e-12


def test_signal_validation():
    with pytest.raises(ValueError):
        FourierSignal(-1.0, 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        FourierSignal(1.0, math.nan, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        FourierSignal(1.0, 0.0, np.array([1.0, math.inf]), np.zeros(2))
    with pytest.raises(ValueError):
        FourierSignal(1.0, 0.0, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        GridSignal(1.0, np.array([]))


def test_signals_are_immutable():
    s = example_theta()
    with pytest.raises((ValueError, AttributeError)):
        s.c[0] = 99.0
