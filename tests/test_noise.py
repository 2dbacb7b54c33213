"""Gaussian drivers, the KL path, and the scalar OU integral against analytic moments."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

from ousignal import (
    GrowthOverflowError,
    KLDomainError,
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


def test_counter_reconstruction_matches_sequence():
    # a fresh source fast-forwarded to counter j yields the same continuation
    whole = RandomSource.pseudo(5).normals(10)
    resumed = RandomSource(RandomSource.PSEUDO, key=(5,), counter=4).normals(6)
    assert np.allclose(whole[4:], resumed)


def test_resumed_stream_replays_in_blocks_and_bounded_memory():
    # a resume past several replay blocks continues the unresumed stream exactly
    counter = 3 * noise._BLOCK + 5
    whole = RandomSource.pseudo(5, 2).normals(counter + 7)
    resumed = RandomSource(RandomSource.PSEUDO, key=(5, 2), counter=counter)
    assert np.array_equal(resumed.normals(7), whole[counter:])
    # replaying 4e6 draws at once would hold 32 MB
    tracemalloc.start()
    try:
        RandomSource(RandomSource.PSEUDO, key=(5,), counter=4_000_000).normal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_row_sources_read_the_rows_of_blocks():
    # a row's source yields that row of blocks(rows, width), a piece at a time, and the
    # source they come from moves on as blocks would, whether or not it has drawn yet
    for make in (lambda: RandomSource.pseudo(8, 1), lambda: RandomSource.quasi(3)):
        for drawn in (0, 3):
            whole, split = make(), make()
            whole.normals(drawn)
            split.normals(drawn)
            rows = whole.blocks(2, 9)
            for r, src in enumerate(split._rows(2, 9)):
                assert np.array_equal(np.concatenate([src.normals(4), src.normals(5)]), rows[r])
            assert (split.counter, split.stream) == (whole.counter, whole.stream)
            assert np.array_equal(split.normals(5), whole.normals(5))


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
    with pytest.raises(GrowthOverflowError):  # u = expm1(2 a0 t0), checked before the domain
        ou_integral_series(params(a0=2.0), 400.0, np.ones(4), enforce_domain=False)
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
        block = [ou_integral_series(p, t0, row) for row in coeffs]
        draws[i * 10000:(i + 1) * 10000] = block
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


def test_series_domain_enforced():
    p = params(sigma=150.0, a0=2.0)
    with pytest.raises(KLDomainError):
        ou_integral_series(p, math.pi / 7, np.ones(10))  # u ~ 5, far outside [0, 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = ou_integral_series(p, math.pi / 7, np.ones(10), enforce_domain=False)
    assert any("validity" in str(w.message) for w in caught)
    assert np.isfinite(value)


def test_series_rejects_growth_kernel():
    with pytest.raises(ValueError):
        ou_integral_series(params(kernel=GR, a0=0.5), 0.1, np.ones(5))
