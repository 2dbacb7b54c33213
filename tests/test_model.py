"""Channel sampling: noise enters only the constant mode, moments match the formulas."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from ousignal import (
    FourierSignal,
    GrowthOverflowError,
    NoiseParams,
    OperatorSpec,
    RandomSource,
    ScenarioConfig,
    evolve_frames,
    extract_coefficients,
    noise_covariance,
    noise_variance,
    ou_integral_series,
    ou_joint_pairs,
    propagate,
    sample_batch,
    sample_stream,
    sup_distance,
)
from ousignal import load_config, model, noise
from ousignal.model import OBSERVE_FOURIER
from ousignal.noise import quasi_gaussian

from _util import example_theta, make_config, sample_signals, signal_row

PI = math.pi
T0 = PI / 7


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(t0=0.0)
    with pytest.raises(ValueError):
        make_config(n=0)
    with pytest.raises(ValueError):
        make_config(grid_points=40, mode_count=20)  # needs 41
    with pytest.raises(ValueError):
        make_config(theta=example_theta(mode_count=25))
    theta = example_theta()
    op = OperatorSpec.of(2.0, -1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(theta=theta, op=op, noise=NoiseParams(sigma=1.0, a0=3.0),
                       t0=T0, n=1)


def test_config_refuses_an_unknown_series_variant():
    # the exact sampler never reads the variant, so only __post_init__ can refuse it
    with pytest.raises(ValueError, match="unknown series variant 'bogus'"):
        sample_batch(make_config(series_variant="bogus"))


def test_config_pads_theta():
    cfg = make_config(theta=FourierSignal.build(PI, c0=1.0, cos={1: 5.0}), mode_count=20)
    assert cfg.theta.mode_count == 20


def test_noiseless_sample_equals_propagated_input():
    for form in ("grid", "fourier"):
        cfg = make_config(sigma=0.0, n=1, observation_form=form)
        batch = sample_batch(cfg)
        z, eta = sample_signals(batch)[0], batch.etas[0]
        assert eta == 0.0
        expected = propagate(cfg.theta, cfg.op, cfg.t0)
        if form == "grid":
            assert np.allclose(z.values, expected.evaluate_grid(cfg.grid_points).values)
        else:
            assert sup_distance(z, expected) == 0.0


def test_sample_mode_radii_under_first_order_channel():
    # every mode rate is 2, so radii scale by exp(2 t0); noise leaves k >= 1 alone
    cfg = make_config(sigma=150.0, n=1)
    z = sample_signals(sample_batch(cfg))[0]
    coeffs = extract_coefficients(z, cfg.mode_count)
    radii = np.hypot(coeffs.c, coeffs.d)
    factor = math.exp(2.0 * T0)
    assert radii[0] == pytest.approx(5.0 * factor, rel=1e-9)
    assert radii[4] == pytest.approx(5.0 * factor, rel=1e-9)
    others = np.delete(radii, [0, 4])
    assert np.max(others) < 1e-9


def test_constant_signal_pins_noise_entry():
    # observed constant level shifts by eta itself; stored c0 shifts by 2 eta
    theta = FourierSignal.build(PI, c0=2.0)
    cfg = make_config(theta=theta, op=OperatorSpec.of(0.5), sigma=3.0, mode_count=1,
                      grid_points=8, n=1)
    batch = sample_batch(cfg)
    z, eta = sample_signals(batch)[0], batch.etas[0]
    coeffs = extract_coefficients(z, 1)
    base_c0 = 2.0 * math.exp(0.5 * T0)
    assert coeffs.c0 - base_c0 == pytest.approx(2.0 * eta, rel=1e-12)
    assert z.values[0] - base_c0 / 2.0 == pytest.approx(eta, rel=1e-12)


def test_batch_shape_and_distinct_noise():
    batch = sample_batch(make_config(n=4))
    assert batch.n == 4
    assert batch.grid_values.shape == (4, 200)
    assert len(set(batch.etas.tolist())) == 4
    assert np.array_equal(sample_signals(batch)[3].values, batch.grid_values[3])
    with pytest.raises(IndexError):
        sample_signals(batch)[4]


def test_batch_noiseless_samples_identical():
    batch = sample_batch(make_config(sigma=0.0, n=5))
    assert np.all(batch.grid_values == batch.grid_values[0])
    assert np.all(batch.etas == 0.0)


def test_batch_rows_are_prefix_of_larger_batch():
    small = sample_batch(make_config(n=64, seed=5))
    large = sample_batch(make_config(n=noise._BLOCK + 100, seed=5))
    assert np.array_equal(small.grid_values, large.grid_values[:64])
    assert np.array_equal(small.etas, large.etas[:64])


def test_pseudo_batch_seeds_one_generator(monkeypatch):
    seeded = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        seeded.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    batch = sample_batch(make_config(n=noise._BLOCK, seed=5, sampler="series", t0=0.1,
                                     series_terms=9))  # eleven blocks
    assert seeded == []  # a batch draws when it is read
    batch.n
    assert seeded == [((5,),)]


def test_batch_draws_fill_one_array_of_n():
    # the etas of n = 1e6 draws take 8 MB; a list of their blocks and its concatenation
    # held 16.8 MB
    cfg = replace(load_config("ex42").scenario, n=1_000_000, seed=3)
    sample_batch(replace(cfg, n=1)).etas  # numpy's first draw imports about 1 MB of modules
    tracemalloc.start()
    try:
        etas = sample_batch(cfg).etas
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert etas.shape == (cfg.n,)
    assert peak < 9e6


def test_stacking_reads_a_set_twice_and_caches_its_count():
    # _stack once read its set for the shape of a row, for n and for the fill: three reads
    # for etas or grid_values alone, six for both
    batch = sample_batch(make_config(n=5, seed=2))
    reads = []

    def blocks():
        reads.append(1)
        return batch._blocks()

    counted = model.SampleSet(batch.config, batch.form, blocks)
    assert counted.etas.tobytes() == batch.etas.tobytes()
    assert len(reads) == 2
    assert counted.grid_values.tobytes() == batch.grid_values.tobytes()
    assert len(reads) == 3
    assert counted.n == 5 and len(reads) == 3


def test_sample_matrix_fills_one_array_of_n_rows():
    # the grid_values of 100000 x 42 samples take 33.6 MB; a list of the blocks and its
    # concatenation held twice that
    batch = sample_batch(make_config(n=100_000, grid_points=42, seed=3))
    sample_batch(make_config(n=1, grid_points=42)).grid_values
    tracemalloc.start()
    try:
        values = batch.grid_values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (batch.n, 42)
    assert peak < values.nbytes + 1e6


@pytest.mark.parametrize("sampler", ["exact", "series"])
@pytest.mark.parametrize("form", ["grid", "fourier"])
@pytest.mark.parametrize("quasi", [False, True])
def test_stream_prefix_equals_batch(quasi, form, sampler):
    # more samples than one block, so block seams and the stream's growing blocks are crossed
    width = 1 if sampler == "exact" else 100
    cfg = make_config(n=noise._BLOCK // width + 5, seed=3, quasi=quasi, quasi_base=4,
                      observation_form=form, sampler=sampler, t0=0.1, series_terms=99,
                      theta=example_theta(mode_count=5), mode_count=5, grid_points=11)
    batch = sample_batch(cfg)
    signals = sample_signals(batch)
    for i, z in enumerate(islice(sample_stream(cfg), cfg.n)):
        if form == "grid":
            assert np.array_equal(z.values, batch.grid_values[i])
        else:
            assert np.array_equal(signal_row(z), signal_row(signals[i]))


def _euler_maruyama(kernel, c0, a0, sigma, t, paths, steps, rng):
    """Constant modes at t of Euler-Maruyama paths of the kernel's SDE, started at c0:
    growth dc = a0 c dt + sigma dW; mean_reverting the signal dc = a0 c dt plus an
    independent d eta = -a0 eta dt + sigma dW, started at 0."""
    dt = t / steps
    c, eta = np.full(paths, c0), np.zeros(paths)
    for _ in range(steps):
        dw = math.sqrt(dt) * rng.standard_normal(paths)
        if kernel == "growth":
            c += a0 * c * dt + sigma * dw
        else:
            c += a0 * c * dt
            eta += -a0 * eta * dt + sigma * dw
    return c + eta


@pytest.mark.parametrize("kernel", ["mean_reverting", "growth"])
def test_both_samplers_match_an_euler_maruyama_oracle_of_the_kernel_sde(kernel):
    # ex42 at t0 = pi/7, where the mean-reverting clock reaches u = 5.02
    sc = load_config("ex42").scenario
    sc = replace(sc, noise=replace(sc.noise, kernel=kernel), n=10000, seed=1,
                 observation_form=OBSERVE_FOURIER)
    a0, sigma, t, c0 = sc.noise.a0, sc.noise.sigma, sc.t0, sc.theta.c0 / 2.0
    variance = noise_variance(sc.noise, t)
    se_mean, se_var = math.sqrt(variance / sc.n), variance * math.sqrt(2.0 / (sc.n - 1))
    # The scheme's moments are closed forms: the mean c0 (1 + a0 dt)^N and the variance
    # sigma^2 dt (r^2N - 1) / (r^2 - 1), r = 1 +- a0 dt. Take the fewest steps N (a power
    # of two) whose bias from the SDE's moments is under 0.1 SE of each.
    steps = 64
    while True:
        dt = t / steps
        r = 1.0 + (a0 if kernel == "growth" else -a0) * dt
        mean_bias = c0 * ((1.0 + a0 * dt) ** steps - math.exp(a0 * t))
        var_bias = sigma**2 * dt * math.expm1(2 * steps * math.log(r)) / (r * r - 1.0) - variance
        if abs(mean_bias) < 0.1 * se_mean and abs(var_bias) < 0.1 * se_var:
            break
        steps *= 2
    oracle = _euler_maruyama(kernel, c0, a0, sigma, t, sc.n, steps, np.random.default_rng(2))
    for sampler in ("exact", "series"):
        batch = sample_batch(replace(sc, sampler=sampler))
        constant = np.concatenate([block[:, 0] for block in batch._blocks()]) / 2.0
        for ours, theirs, se in ((constant.mean(), oracle.mean(), se_mean),
                                 (constant.var(ddof=1), oracle.var(ddof=1), se_var)):
            # two independent estimates: their difference has sqrt(2) times the SE
            assert abs(ours - theirs) < 3 * math.sqrt(2.0) * se, (sampler, ours, theirs, steps)


def test_batch_mean_noise_obeys_clt_band():
    cfg = make_config(n=100000, observation_form=OBSERVE_FOURIER, seed=31)
    batch = sample_batch(cfg)
    v = noise_variance(cfg.noise, cfg.t0)
    assert abs(batch.etas.mean()) < 3.0 * math.sqrt(v / cfg.n)


def test_batch_quasi_uses_consecutive_streams():
    cfg = make_config(n=3, quasi=True, observation_form=OBSERVE_FOURIER)
    batch = sample_batch(cfg)
    v = math.sqrt(noise_variance(cfg.noise, cfg.t0))
    expected = [v * quasi_gaussian(stream, 1) for stream in (1, 2, 3)]
    assert batch.etas == pytest.approx(expected, abs=1e-12)


def test_noise_lives_only_in_constant_mode():
    cfg = make_config(sigma=15000.0, n=6, seed=2)
    batch = sample_batch(cfg)
    noiseless = propagate(cfg.theta, cfg.op, cfg.t0).evaluate_grid(cfg.grid_points)
    base = extract_coefficients(noiseless, cfg.mode_count)
    for i, z in enumerate(sample_signals(batch)):
        coeffs = extract_coefficients(z, cfg.mode_count)
        gap = np.hypot(coeffs.c - base.c, coeffs.d - base.d)
        assert np.max(gap) < 1e-9
        assert coeffs.c0 - base.c0 == pytest.approx(2.0 * batch.etas[i], rel=1e-9)


def test_sample_mean_coefficients_unbiased_with_clt_rate():
    # coefficient-wise mean over samples: modes are exact, c0 deviates ~ 1/sqrt(n)
    base_cfg = make_config(seed=17)
    v = noise_variance(base_cfg.noise, base_cfg.t0)
    noiseless = propagate(base_cfg.theta, base_cfg.op, base_cfg.t0)
    expected = extract_coefficients(noiseless.evaluate_grid(base_cfg.grid_points),
                                    base_cfg.mode_count)
    deviations = {}
    for n in (100, 1000, 10000):
        batch = sample_batch(make_config(seed=17, n=n))
        mean_coeffs = extract_coefficients(batch._mean()[0], base_cfg.mode_count)
        assert np.max(np.hypot(mean_coeffs.c - expected.c,
                               mean_coeffs.d - expected.d)) < 1e-9
        deviations[n] = abs(mean_coeffs.c0 - expected.c0)
        assert deviations[n] < 3.0 * 2.0 * math.sqrt(v / n)  # c0 carries 2 eta
    assert deviations[10000] < deviations[100]


def test_empirical_moments_match_analytic_variance():
    # 42 grid points put x = 0 on point 21 and keep the (n, G) matrix at 34 MB
    cfg = make_config(n=100000, grid_points=42, seed=23)
    batch = sample_batch(cfg)
    v = noise_variance(cfg.noise, cfg.t0)
    values = batch.grid_values[:, cfg.grid_points // 2]
    assert abs(values.var(ddof=1) - v) < 3.0 * v * math.sqrt(2.0 / (cfg.n - 1))
    mean = propagate(cfg.theta, cfg.op, cfg.t0).evaluate(0.0)
    assert abs(values.mean() - mean) < 3.0 * math.sqrt(v / cfg.n)


def test_variance_is_location_independent():
    cfg = make_config(n=2000, seed=8)
    batch = sample_batch(cfg)
    variances = batch.grid_values.var(axis=0, ddof=1)
    reference = variances[cfg.grid_points // 2]  # x = 0
    for g in range(0, cfg.grid_points, cfg.grid_points // 10):  # x = -pi, -0.8 pi, ...
        assert variances[g] == pytest.approx(reference, rel=1e-9)


def test_joint_value_covariance_matches_formula():
    # two observation times sharing one driving path
    cfg = make_config(sigma=20.0)
    s, t = 0.3 * cfg.t0, cfg.t0
    count = 100000
    eta_s, eta_t = ou_joint_pairs(cfg.noise, s, t, count, RandomSource.pseudo(3))
    x = 0.3
    base_s = propagate(cfg.theta, cfg.op, s).evaluate(x)
    base_t = propagate(cfg.theta, cfg.op, cfg.t0).evaluate(x)
    values_s = base_s + eta_s
    values_t = base_t + eta_t
    analytic = noise_covariance(cfg.noise, s, t)
    empirical = float(np.cov(values_s, values_t, ddof=1)[0, 1])
    spread = noise_variance(cfg.noise, s) * noise_variance(cfg.noise, t) + analytic**2
    assert abs(empirical - analytic) < 3.0 * math.sqrt(spread / (count - 1))


def test_stream_is_deterministic_and_matches_batch():
    cfg = make_config(n=3, seed=12)
    streamed = list(islice(sample_stream(cfg), 3))
    batch = sample_batch(cfg)
    for i, z in enumerate(streamed):
        assert np.array_equal(z.values, batch.grid_values[i])


# ---------------------------------------------------------------------------
# frames


def test_frames_start_at_input_signal():
    cfg = make_config()
    frames = list(evolve_frames(cfg, [0.0]))
    assert np.array_equal(frames[0][1].values,
                          cfg.theta.evaluate_grid(cfg.grid_points).values)


def test_frames_grow_at_constant_mode_rate():
    # animation preset channel: every mode rate equals 2
    theta = FourierSignal.build(PI, c0=1.0, cos={1: 15.0, 3: 3.0, 8: 1.0},
                                sin={3: 5.0, 5: 15.0}, mode_count=20)
    cfg = make_config(theta=theta, op=OperatorSpec.of(2.0, -10.0), sigma=0.0)
    times = [0.0, 0.1, 0.2]
    frames = evolve_frames(cfg, times)
    coeffs = [extract_coefficients(g, 20) for _, g in frames]
    radii = [np.hypot(s.c, s.d) for s in coeffs]
    live = radii[0] > 1e-9  # quadrature roundoff leaves ~1e-15 in silent modes
    for j in (1, 2):
        ratio = radii[j][live] / radii[j - 1][live]
        assert np.allclose(ratio, math.exp(2.0 * 0.1), rtol=1e-9)


def test_noisy_frames_with_zero_sigma_equal_deterministic():
    cfg = make_config(sigma=0.0)
    times = list(np.linspace(0.0, T0, 5))
    plain = list(evolve_frames(cfg, times))
    for mode in ("path", "iid"):
        noisy = evolve_frames(cfg, times, noise=mode)
        for (_, a), (_, b) in zip(plain, noisy):
            assert np.array_equal(a.values, b.values)


def test_path_noise_single_driver_reproducible():
    cfg = make_config(sigma=1.174, op=OperatorSpec.of(2.0, -10.0),
                      theta=example_theta(), seed=4)
    times = list(np.linspace(0.0, T0, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the path's clock passes 1 with no warning
        one = list(evolve_frames(cfg, times, noise="path"))
        two = list(evolve_frames(cfg, times, noise="path"))
    for (_, a), (_, b) in zip(one, two):
        assert np.array_equal(a.values, b.values)
    assert not np.array_equal(one[0][1].values, one[-1][1].values)


def test_iid_noise_redraws_each_frame():
    cfg = make_config(sigma=150.0, seed=6)
    frames = evolve_frames(cfg, [0.1, 0.1, 0.1], noise="iid")
    offsets = {float(g.values[0]) for _, g in frames}
    assert len(offsets) == 3


def test_iid_frames_are_independent_draws_and_path_frames_share_one_path():
    # iid draws each frame's noise anew from the exact marginal law: a covariance of 0
    # between frames, where a path's frames have noise_covariance(s, t)
    theta = FourierSignal.build(PI, c0=1.0, cos={1: 2.0}, mode_count=1)
    cfg = make_config(theta=theta, sigma=1.0, mode_count=1, grid_points=3, series_terms=199)
    times, seeds = [0.05, 0.1], 1000  # clocks 0.22 and 0.49: the sine series is truncated
    plain = [g.values[0] for _, g in evolve_frames(cfg, times)]
    var_s, var_t = (noise_variance(cfg.noise, t) for t in times)
    cov = noise_covariance(cfg.noise, *times)
    expected = {"iid": 0.0, "path": cov}
    se = {mode: math.sqrt((var_s * var_t + c**2) / (seeds - 1)) for mode, c in expected.items()}
    # the 200-term series path has covariance weights_s . weights_t (its coefficients are
    # independent standard normals): 3.0e-7 below cov, under a thousandth of the path's SE
    weights = ou_integral_series(cfg.noise, times, np.eye(200), cfg.series_variant)
    assert abs(float(weights[:, 0] @ weights[:, 1]) - cov) < se["path"] / 1000
    for mode, c in expected.items():
        etas = np.array([[g.values[0] - base for (_, g), base in
                          zip(evolve_frames(replace(cfg, seed=seed), times, noise=mode), plain)]
                         for seed in range(seeds)])
        assert abs(np.cov(etas.T, ddof=1)[0, 1] - c) < 3.0 * se[mode]


def test_frames_validate_times():
    cfg = make_config()
    with pytest.raises(ValueError):
        evolve_frames(cfg, [0.2, 0.1])
    with pytest.raises(ValueError):
        evolve_frames(cfg, [-0.1, 0.2])
    with pytest.raises(ValueError, match="empty"):  # was an empty iterator: StopIteration on write
        evolve_frames(cfg, [])


def test_frames_overflow_reports_mode():
    cfg = make_config(sigma=0.0)
    with pytest.raises(GrowthOverflowError, match="mode"):
        list(evolve_frames(cfg, [0.0, 400.0]))
