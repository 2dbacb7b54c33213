"""Gaussian drivers, the KL path, and the scalar OU integral against analytic moments."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from ousignal import (
    GrowthOverflowError,
    NoiseParams,
    RandomSource,
    noise_covariance,
    noise_variance,
    ou_integral_exact,
    ou_integral_series,
    ou_joint_pairs,
)
from ousignal import noise
from ousignal.noise import gaussian_inverse_cdf, nth_prime, quasi_gaussian

MR = "mean_reverting"
GR = "growth"


def params(sigma=150.0, a0=2.0, kernel=MR, series_terms=999):
    return NoiseParams(sigma=sigma, a0=a0, kernel=kernel, series_terms=series_terms)


# ---------------------------------------------------------------------------
# inverse normal CDF


def test_icdf_median_is_zero():
    assert gaussian_inverse_cdf(0.5) == pytest.approx(0.0, abs=1e-15)


def test_icdf_upper_tail_value():
    # high-precision inversion of the error-function integral
    assert gaussian_inverse_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


def test_icdf_roundtrip_through_cdf():
    rng = np.random.default_rng(1)
    ps = np.concatenate([
        rng.uniform(1e-10, 1 - 1e-10, 1000),
        [1e-10, 1e-6, 0.02425, 0.5, 0.97575, 1 - 1e-6, 1 - 1e-10],
    ])
    for p in ps:
        z = gaussian_inverse_cdf(p)
        assert abs(stats.norm.cdf(z) - p) < 1e-9


def test_icdf_agrees_with_reference_inversion():
    ps = np.linspace(1e-9, 1 - 1e-9, 2001)
    ours = np.array([gaussian_inverse_cdf(p) for p in ps])
    reference = special.ndtri(ps)
    assert np.max(np.abs(ours - reference)) < 1e-9


def test_icdf_array_matches_scalar_calls():
    ps = np.array([[1e-300, 0.01, 0.3], [0.5, 0.97, 1 - 1e-12]])
    values = gaussian_inverse_cdf(ps)
    assert values.shape == ps.shape
    assert values.ravel().tolist() == [gaussian_inverse_cdf(p) for p in ps.ravel()]
    assert isinstance(gaussian_inverse_cdf(0.3), float)
    with pytest.raises(ValueError):
        gaussian_inverse_cdf(np.array([0.5, 1.0]))


def test_icdf_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            gaussian_inverse_cdf(p)


def test_icdf_is_within_8_ulp_of_a_high_precision_quantile():
    # Acklam's approximation with one Halley step was 8.3e6 ulp off at p = 1 - 1e-12
    lower = np.logspace(-300, math.log10(0.5), 300)
    upper = 1.0 - 2.0 ** -np.arange(1, 53)
    ps = np.concatenate([lower, upper, np.linspace(0.01, 0.99, 99)])
    worst = 0.0
    with mpmath.workdps(40):
        for p, z in zip(ps.tolist(), gaussian_inverse_cdf(ps).tolist()):
            # 1 - p is exact for p >= 1/2, and Phi^-1(p) = -Phi^-1(1 - p)
            q = min(p, 1.0 - p)
            ref = mpmath.findroot(lambda x: mpmath.ncdf(x) - q, -abs(z))
            ref = -ref if p > 0.5 else ref
            worst = max(worst, float(abs(z - ref)) / math.ulp(float(ref)) if ref else abs(z))
    assert worst <= 8.0


# ---------------------------------------------------------------------------
# quasi-random sequence


def test_nth_prime():
    assert [nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
    assert nth_prime(100) == 541
    with pytest.raises(ValueError):
        nth_prime(0)


def test_quasi_first_values():
    # frac(sqrt 2) = 0.41421356..., frac(2 sqrt 3) = 0.46410161...
    assert quasi_gaussian(1, 1) == pytest.approx(-0.21671927622377773, abs=1e-9)
    assert quasi_gaussian(2, 2) == pytest.approx(-0.090105686695349, abs=1e-9)


def test_quasi_bits_do_not_depend_on_numpy_cpu_kernels():
    # the np.log and np.exp of the former quantile picked their kernel by CPU, so 1e6 quasi
    # values had one digest under AVX-512 and another without it; on a host without
    # AVX-512 the switch changes nothing, and the two runs are the same run
    script = ("import hashlib, numpy as np; from ousignal.noise import quasi_gaussian; "
              "values = quasi_gaussian(np.arange(1, 51)[:, None], np.arange(1, 20001)); "
              "print(hashlib.sha256(values.tobytes()).hexdigest())")
    src = str(Path(noise.__file__).parents[1])
    digests = []
    for disabled in ("", "AVX512_SPR AVX512_ICL X86_V4"):
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


def test_quasi_empirical_mean_near_zero():
    values = RandomSource.quasi(1).normals(100000)
    assert abs(values.mean()) < 0.02


def test_quasi_empirical_law_is_standard_normal():
    values = RandomSource.quasi(1).normals(100000)
    statistic = stats.kstest(values, "norm").statistic
    assert statistic < 0.01


def test_quasi_rejects_bad_indices():
    with pytest.raises(ValueError):
        quasi_gaussian(0, 1)
    with pytest.raises(ValueError):
        quasi_gaussian(1, 0)


# ---------------------------------------------------------------------------
# random sources


def test_pseudo_source_reproducible():
    a = RandomSource.pseudo(1234).normals(10)
    b = RandomSource.pseudo(1234).normals(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RandomSource.pseudo(1235).normals(10))


def test_pseudo_substreams_are_order_independent():
    # a keyed stream's draws depend on its key alone, not on how they are split
    early = RandomSource.pseudo(7, 3).normals(4)
    RandomSource.pseudo(7).normals(100)
    split = RandomSource.pseudo(7, 3)
    assert np.array_equal(early, np.concatenate([split.normals(1), split.normals(3)]))
    assert not np.array_equal(early, RandomSource.pseudo(7, 4).normals(4))


def test_counter_tracks_consumption():
    src = RandomSource.pseudo(0)
    src.normal()
    src.normals(4)
    assert src.counter == 5


def test_quasi_source_matches_pointwise_map():
    src = RandomSource.quasi(3)
    drawn = [src.normal() for _ in range(5)]
    expected = [quasi_gaussian(3, j) for j in range(1, 6)]
    assert drawn == pytest.approx(expected, abs=0.0)


def test_blocks_rows_are_independent_draws():
    # pseudo rows are consecutive stretches of one stream
    assert np.array_equal(RandomSource.pseudo(8).blocks(3, 4).ravel(),
                          RandomSource.pseudo(8).normals(12))
    # quasi rows are consecutive streams, never a shifted stretch of one sequence
    src = RandomSource.quasi(3)
    rows = src.blocks(2, 5)
    for r, stream in enumerate((3, 4)):
        assert rows[r].tolist() == [quasi_gaussian(stream, j) for j in range(1, 6)]
    assert src.blocks(1, 1)[0, 0] == quasi_gaussian(5, 1)


# ---------------------------------------------------------------------------
# analytic moments


def test_sigma_whose_variance_scale_overflows_is_refused():
    # sigma^2 overflows, or sigma^2 is finite but sigma^2 / (2 a0) is not
    for sigma, a0 in ((1e308, 2.0), (1e155, 2.0), (1e150, 1e-10)):
        with pytest.raises(ValueError, match="sigma"):
            params(sigma=sigma, a0=a0)
    assert math.isfinite(noise_variance(params(sigma=1e150), 0.5))


def test_variance_zero_at_time_zero():
    assert noise_variance(params(), 0.0) == 0.0


def test_variance_reaches_stationary_level():
    p = params()
    assert noise_variance(p, 1e3) == pytest.approx(150.0**2 / 4.0, rel=1e-12)


def test_variance_frozen_value():
    assert noise_variance(params(), math.pi / 7) == pytest.approx(4690.71603317694, rel=1e-12)


def test_variance_growth_kernel():
    p = params(sigma=3.0, a0=0.5, kernel=GR)
    t = 0.7
    assert noise_variance(p, t) == pytest.approx(9.0 * math.expm1(t), rel=1e-12)


def test_growth_kernel_overflow_raises_growth_overflow_error():
    p = params(sigma=1.0, a0=2.0, kernel=GR)
    with pytest.raises(GrowthOverflowError, match="mode 0"):
        noise_variance(p, 400.0)      # expm1(1600) overflows
    with pytest.raises(GrowthOverflowError):
        noise_variance(params(sigma=1e150, a0=2.0, kernel=GR), 100.0)  # the product does
    with pytest.raises(GrowthOverflowError):
        noise_covariance(p, 1.0, 400.0)
    with pytest.raises(GrowthOverflowError):  # the carry exp(a0 (t - s)) of the Markov step
        ou_joint_pairs(p, 0.1, 400.0, 4, RandomSource.pseudo(1))
    with pytest.raises(GrowthOverflowError):  # the clock expm1(2 a0 t0)
        ou_integral_series(params(a0=2.0), 400.0, np.ones(4))
    with pytest.raises(GrowthOverflowError):  # the growth prefactor's exp(a0 t0)
        ou_integral_series(p, 400.0, np.ones(4))
    assert noise_variance(params(sigma=0.0, a0=2.0, kernel=GR), 400.0) == 0.0
    assert math.isfinite(noise_variance(p, 100.0))  # 1.3e173, as before


def test_variance_monotone_in_time():
    p = params(sigma=2.0, a0=1.3)
    ts = np.sort(np.random.default_rng(4).uniform(0, 5, 30))
    values = [noise_variance(p, t) for t in ts]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_covariance_diagonal_matches_variance():
    p = params(sigma=7.0, a0=0.8)
    for t in (0.2, 1.0, 3.0):
        assert noise_covariance(p, t, t) == pytest.approx(noise_variance(p, t), rel=1e-12)
    g = params(sigma=7.0, a0=0.8, kernel=GR)
    assert noise_covariance(g, 0.4, 0.4) == pytest.approx(noise_variance(g, 0.4), rel=1e-12)


def test_covariance_vanishes_at_time_origin():
    assert noise_covariance(params(), 0.0, 2.0) == 0.0


def test_covariance_frozen_value():
    p = params(sigma=1.0, a0=2.0)
    expected = 0.25 * (math.exp(-0.4) - math.exp(-0.8))
    assert noise_covariance(p, 0.1, 0.3) == pytest.approx(expected, rel=1e-12)
    assert noise_covariance(p, 0.3, 0.1) == pytest.approx(expected, rel=1e-12)  # symmetric


def test_covariance_cauchy_schwarz():
    rng = np.random.default_rng(9)
    for kernel in (MR, GR):
        p = params(sigma=3.0, a0=1.1, kernel=kernel)
        for _ in range(50):
            s, t = rng.uniform(0, 3, 2)
            bound = math.sqrt(noise_variance(p, s) * noise_variance(p, t))
            assert abs(noise_covariance(p, s, t)) <= bound + 1e-12


# ---------------------------------------------------------------------------
# exact sampler


def test_exact_sampler_zero_noise():
    assert ou_integral_exact(params(sigma=0.0), 0.3, RandomSource.pseudo(0)) == 0.0


def test_exact_sampler_consumes_one_gaussian():
    rng = RandomSource.pseudo(42)
    ou_integral_exact(params(), 0.3, rng)
    assert rng.counter == 1


def test_exact_sampler_reproducible():
    draw = ou_integral_exact(params(), 0.3, RandomSource.pseudo(42))
    again = ou_integral_exact(params(), 0.3, RandomSource.pseudo(42))
    assert draw == again


def test_exact_sampler_variance_matches_formula():
    p = params()  # sigma=150, a0=2
    t0 = math.pi / 7
    rng = RandomSource.pseudo(2024)
    draws = np.array([ou_integral_exact(p, t0, rng) for _ in range(100000)])
    analytic = 4690.71603317694
    se = analytic * math.sqrt(2.0 / (draws.size - 1))
    assert abs(draws.var(ddof=1) - analytic) < 3 * se
    assert abs(draws.mean()) < 3 * math.sqrt(analytic / draws.size)


def test_joint_pairs_match_covariance():
    p = params(sigma=1.0, a0=2.0)
    early, late = ou_joint_pairs(p, 0.1, 0.3, 100000, RandomSource.pseudo(11))
    analytic = noise_covariance(p, 0.1, 0.3)
    empirical = float(np.cov(early, late, ddof=1)[0, 1])
    spread = noise_variance(p, 0.1) * noise_variance(p, 0.3) + analytic**2
    assert abs(empirical - analytic) < 3 * math.sqrt(spread / 99999)
    for t, values in ((0.1, early), (0.3, late)):
        v = noise_variance(p, t)
        assert abs(values.var(ddof=1) - v) < 3 * v * math.sqrt(2.0 / 99999)


@pytest.mark.parametrize("drawn", [0, 5], ids=["fresh", "live"])
@pytest.mark.parametrize("make", [lambda: RandomSource.pseudo(3, 1), lambda: RandomSource.quasi(5)],
                         ids=["pseudo", "quasi"])
def test_joint_pairs_are_the_markov_step_of_two_rows_and_advance_the_source_alike(make, drawn):
    # the count spans three blocks; the pairs are built a block at a time
    p = params(sigma=2.0, a0=1.5)
    count = 2 * noise._BLOCK + 7
    for s, t in ((0.1, 0.3), (0.4, 0.2)):
        paired, whole = make(), make()
        paired.normals(drawn)
        whole.normals(drawn)
        early, late = ou_joint_pairs(p, s, t, count, paired)
        g_early, g_inc = whole.blocks(2, count)
        lo, hi = min(s, t), max(s, t)
        first = math.sqrt(noise_variance(p, lo)) * g_early
        second = (math.exp(-1.5 * (hi - lo)) * first
                  + math.sqrt(noise_variance(p, hi - lo)) * g_inc)
        assert np.array_equal((early, late), (first, second) if s < t else (second, first))
        assert (paired.counter, paired.stream) == (whole.counter, whole.stream)
        assert np.array_equal(paired.normals(4), whole.normals(4))


def test_joint_pairs_growth_kernel():
    p = params(sigma=1.0, a0=0.7, kernel=GR)
    early, late = ou_joint_pairs(p, 0.2, 0.5, 100000, RandomSource.pseudo(12))
    analytic = noise_covariance(p, 0.2, 0.5)
    empirical = float(np.cov(early, late, ddof=1)[0, 1])
    spread = noise_variance(p, 0.2) * noise_variance(p, 0.5) + analytic**2
    assert abs(empirical - analytic) < 3 * math.sqrt(spread / 99999)


# ---------------------------------------------------------------------------
# series sampler


def test_series_zero_coefficients_give_zero():
    assert ou_integral_series(params(a0=0.5), 0.4, np.zeros(100)) == 0.0


def test_series_variant_ratio_is_exact():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(50)
    p = params(sigma=2.0, a0=2.0)
    matched = ou_integral_series(p, 0.1, coeffs, "variance_matched")
    faithful = ou_integral_series(p, 0.1, coeffs, "paper_faithful")
    assert faithful / matched == pytest.approx(1.0 / math.sqrt(4.0), rel=1e-12)


def test_series_variance_matches_analytic():
    p = params(sigma=1.0, a0=0.5)
    t0 = 0.4  # u = e^0.4 - 1 ~ 0.49
    rng = np.random.default_rng(15)
    draws = np.empty(100000)
    for i in range(10):
        coeffs = rng.standard_normal((10000, 1000))
        # one matrix call; test_series_matrix_rows_match_vector_calls holds each of its
        # rows to the per-row call
        draws[i * 10000:(i + 1) * 10000] = ou_integral_series(p, t0, coeffs)
    analytic = noise_variance(p, t0)
    se = analytic * math.sqrt(2.0 / (draws.size - 1))
    truncation = math.exp(-2 * p.a0 * t0) * 2.0 / (math.pi**2 * 999)
    assert abs(draws.var(ddof=1) - analytic) < 3 * se + truncation


def test_series_matrix_rows_match_vector_calls():
    p = params(sigma=1.0, a0=0.5)
    coeffs = np.random.default_rng(16).standard_normal((6, 40))
    rows = ou_integral_series(p, 0.4, coeffs)
    one_by_one = [ou_integral_series(p, 0.4, row) for row in coeffs]
    assert rows.shape == (6,)
    assert rows == pytest.approx(one_by_one, rel=1e-13, abs=1e-15)


def test_series_times_vector_keeps_the_bits_of_scalar_calls():
    p = params(sigma=1.0, a0=2.0)
    coeffs = np.random.default_rng(17).standard_normal((5, 60))
    inside = [0.0, 0.05, 0.1, math.log(2.0) / 4.0]  # clocks up to exactly 1: U = 1
    rows = ou_integral_series(p, inside, coeffs)
    assert rows.shape == (5, 4)
    assert np.array_equal(rows, np.transpose([ou_integral_series(p, t, coeffs) for t in inside]))
    # past the unit clock U is the last clock, so the horizon's value ignores earlier times
    rows = ou_integral_series(p, [0.1, math.pi / 7], coeffs)
    assert np.array_equal(rows[:, 1], ou_integral_series(p, math.pi / 7, coeffs))


@pytest.mark.parametrize("kernel", [MR, GR])
def test_series_path_matches_covariance_past_the_unit_clock(kernel):
    # ex42's frames 0:pi/7:4, whose mean-reverting clock reaches u = e^(4 pi/7) - 1 = 5.02;
    # the growth clock 1 - e^(-2 a0 t) never passes 1
    p = params(sigma=150.0, a0=2.0, kernel=kernel)
    times = np.linspace(0.0, math.pi / 7, 4)
    rng, draws = np.random.default_rng(18), 10000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = np.vstack([ou_integral_series(p, times, rng.standard_normal((1000, 1000)))
                          for _ in range(draws // 1000)])
    assert np.all(path[:, 0] == 0.0)
    for i in range(1, 4):
        for j in range(i, 4):
            analytic = noise_covariance(p, times[i], times[j])
            empirical = float(np.cov(path[:, i], path[:, j], ddof=1)[0, 1])
            spread = noise_variance(p, times[i]) * noise_variance(p, times[j]) + analytic**2
            assert abs(empirical - analytic) < 3 * math.sqrt(spread / (draws - 1)), (i, j)
