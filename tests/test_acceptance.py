"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All analytic target values were fixed in advance from the closed-form moment
and rate formulas and cross-checked by independent scalar simulation.
"""

import math
import time
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from ousignal import (
    OperatorSpec,
    RandomSource,
    convergence_study,
    extract_coefficients,
    inverse_propagate,
    load_config,
    noise_covariance,
    noise_variance,
    ou_integral_exact,
    ou_integral_series,
    ou_joint_pairs,
    propagate,
    run_estimate,
    sample_batch,
    sample_stream,
)
from ousignal.cli import main as cli_main
from ousignal.cli import replay_manifest
from ousignal.noise import NoiseParams

from _util import example_theta, make_config, random_signal

PI = math.pi
T0 = PI / 7

# channel of the bundled sampling preset: rate 2 on every mode
NOISE_VAR_AT_T0 = 150.0**2 / 4.0 * (1.0 - math.exp(-4.0 * T0))  # 4690.71603317694
DECAY_AT_T0 = math.exp(-2.0 * T0)


def _finish(num: int, label: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_moment_fidelity():
    started = time.monotonic()
    noise = NoiseParams(sigma=150.0, a0=2.0)
    rng = RandomSource.pseudo(108)
    draws = np.array([ou_integral_exact(noise, T0, rng) for _ in range(100000)])
    analytic = NOISE_VAR_AT_T0
    assert analytic == pytest.approx(4690.71603317694, rel=1e-12)
    se = analytic * math.sqrt(2.0 / (draws.size - 1))
    z_var = (draws.var(ddof=1) - analytic) / se
    checks = [abs(z_var) <= 3.0]
    details = [f"var z={z_var:+.2f}"]
    for i, (fs, ft) in enumerate([(0.25, 0.5), (0.25, 1.0), (0.5, 0.75), (0.5, 1.0),
                                  (0.75, 1.0)]):
        s, t = fs * T0, ft * T0
        early, late = ou_joint_pairs(noise, s, t, 100000, RandomSource.pseudo(208 + i))
        target = noise_covariance(noise, s, t)
        spread = noise_variance(noise, s) * noise_variance(noise, t) + target**2
        z = (np.cov(early, late, ddof=1)[0, 1] - target) / math.sqrt(spread / 99999)
        checks.append(abs(z) <= 3.0)
        details.append(f"cov{i} z={z:+.2f}")
    elapsed = time.monotonic() - started
    checks.append(elapsed < 10.0)
    _finish(1, "moment fidelity", all(checks), f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_2_propagator_matches_characteristics():
    started = time.monotonic()
    op = OperatorSpec.of(2.0, -1.0)
    rng = np.random.default_rng(99)
    worst = 0.0
    for theta in (example_theta(), random_signal(rng, PI, 20), random_signal(rng, PI, 12)):
        for t in (0.1, T0, 1.0):
            moved = propagate(theta, op, t).evaluate_grid(4096)
            oracle = math.exp(2.0 * t) * theta.evaluate(moved.grid - t)
            worst = max(worst, float(np.max(np.abs(moved.values - oracle))))
    elapsed = time.monotonic() - started
    _finish(2, "propagator vs characteristics oracle", worst < 1e-9 and elapsed < 1.0,
            f"sup={worst:.2e}; {elapsed:.2f}s")


def test_criterion_3_roundtrips():
    started = time.monotonic()
    op = OperatorSpec.of(2.0, -1.0)
    rng = np.random.default_rng(7)
    worst_prop = 0.0
    worst_quad = 0.0
    times = (0.1, T0, 1.0)
    for i in range(100):
        s = random_signal(rng, PI, 20)
        t = times[i % 3]
        back = inverse_propagate(propagate(s, op, t), op, t)
        worst_prop = max(worst_prop,
                         abs(back.c0 - s.c0),
                         float(np.max(np.abs(back.c - s.c))),
                         float(np.max(np.abs(back.d - s.d))))
        grid_points = 41 if i % 2 else 200
        again = extract_coefficients(s.evaluate_grid(grid_points), 20)
        worst_quad = max(worst_quad,
                         abs(again.c0 - s.c0),
                         float(np.max(np.abs(again.c - s.c))),
                         float(np.max(np.abs(again.d - s.d))))
    elapsed = time.monotonic() - started
    ok = worst_prop < 1e-10 and worst_quad < 1e-10 and elapsed < 1.0
    _finish(3, "inverse and quadrature round trips", ok,
            f"propagate={worst_prop:.2e} quadrature={worst_quad:.2e}; {elapsed:.2f}s")


def test_criterion_4_noiseless_estimator_exactness():
    started = time.monotonic()
    worst = 0.0
    preset = replace(load_config("ex42").scenario, seed=0)
    preset = replace(preset, noise=replace(preset.noise, sigma=0.0))
    worst = max(worst, run_estimate(sample_batch(preset)).sup_error)
    rng = np.random.default_rng(2718)
    for i in range(20):
        theta = random_signal(rng, PI, 20)
        op = OperatorSpec.of(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        cfg = make_config(theta=theta, op=op, sigma=0.0, t0=rng.uniform(0.1, 1.0),
                          n=1 + i % 3, grid_points=41 if i % 2 else 200,
                          observation_form="grid" if i % 3 else "fourier", seed=i)
        worst = max(worst, run_estimate(sample_batch(cfg)).sup_error)
    elapsed = time.monotonic() - started
    _finish(4, "noiseless estimator exactness", worst < 1e-9 and elapsed < 1.0,
            f"sup={worst:.2e}; {elapsed:.2f}s")


def test_criterion_5_consistency_rate():
    started = time.monotonic()
    scenario = replace(load_config("ex42").scenario, seed=515)
    study = convergence_study(scenario, [100, 1000, 10000], trials=50)
    slope_ok = study.slope is not None and -0.6 <= study.slope <= -0.4
    n_final, mean_final, sd_final = study.summary[-1]
    # half-normal mean of the decayed constant offset, pinned before the build
    target = DECAY_AT_T0 * math.sqrt(2.0 * NOISE_VAR_AT_T0 / (PI * 10000))
    assert target == pytest.approx(0.222709025348351, rel=1e-12)
    band = 3.0 * sd_final / math.sqrt(50)
    mean_ok = abs(mean_final - target) < band
    elapsed = time.monotonic() - started
    ok = slope_ok and mean_ok and n_final == 10000 and elapsed < 120.0
    _finish(5, "consistency rate", ok,
            f"slope={study.slope:+.3f}; mean@1e4={mean_final:.4f} "
            f"target={target:.4f} band={band:.4f}; {elapsed:.1f}s")


def test_criterion_6_error_localization():
    worst = 0.0
    for sigma in (150.0, 15000.0):
        for n in (1, 10, 100):
            cfg = make_config(sigma=sigma, n=n, seed=int(sigma) + n)
            worst = max(worst, run_estimate(sample_batch(cfg)).max_mode_error)
    quasi_cfg = make_config(sigma=1500.0, n=10, quasi=True)
    worst = max(worst, run_estimate(sample_batch(quasi_cfg)).max_mode_error)
    _finish(6, "noise stays in the constant mode", worst < 1e-9, f"max={worst:.2e}")


def test_criterion_7_sigma_linearity():
    started = time.monotonic()
    low = convergence_study(make_config(sigma=150.0, n=10, seed=7), [10], trials=200)
    high = convergence_study(make_config(sigma=1500.0, n=10, seed=7), [10], trials=200)
    ratio = high.summary[0][1] / low.summary[0][1]
    elapsed = time.monotonic() - started
    ok = abs(ratio - 10.0) <= 1.5 and elapsed < 30.0
    _finish(7, "error linear in noise amplitude", ok, f"ratio={ratio:.3f}; {elapsed:.1f}s")


def test_criterion_8_series_and_exact_agree():
    started = time.monotonic()
    checks = []
    details = []

    # variance-matched series variance against the analytic formula (u ~ 0.49)
    noise = NoiseParams(sigma=1.0, a0=0.5)
    t0 = 0.4
    rng = np.random.default_rng(88)
    matched = np.empty(100000)
    for block in range(10):
        coeffs = rng.standard_normal((10000, 1000))
        matched[block * 10000:(block + 1) * 10000] = [
            ou_integral_series(noise, t0, row) for row in coeffs]
    analytic = noise_variance(noise, t0)
    z = (matched.var(ddof=1) - analytic) / (analytic * math.sqrt(2.0 / 99999))
    checks.append(abs(z) <= 3.0)
    details.append(f"matched var z={z:+.2f}")

    # the alternative prefactor shifts the standard deviation by 1/(2 a0)
    sharp = NoiseParams(sigma=1.0, a0=2.0)
    t0_sharp = 0.1  # u = e^0.4 - 1 stays inside [0, 1]
    rng = np.random.default_rng(89)
    faithful = np.empty(100000)
    ratio_worst = 0.0
    for block in range(10):
        coeffs = rng.standard_normal((10000, 1000))
        block_vals = np.array([ou_integral_series(sharp, t0_sharp, row, "paper_faithful")
                               for row in coeffs[:, :]])
        faithful[block * 10000:(block + 1) * 10000] = block_vals
        probe = coeffs[0]
        vm = ou_integral_series(sharp, t0_sharp, probe, "variance_matched")
        ratio_worst = max(ratio_worst, abs(block_vals[0] / vm - 1.0 / math.sqrt(4.0)))
    checks.append(ratio_worst < 1e-12)
    details.append(f"output ratio gap={ratio_worst:.1e}")
    u = math.expm1(2.0 * sharp.a0 * t0_sharp)
    sd_target = sharp.sigma / (2.0 * sharp.a0) * math.exp(-sharp.a0 * t0_sharp) * math.sqrt(u)
    sd_gap = abs(faithful.std(ddof=1) / sd_target - 1.0)
    checks.append(sd_gap < 0.01)
    details.append(f"sd factor gap={sd_gap:.4f}")

    elapsed = time.monotonic() - started
    _finish(8, "series sampler agreement", all(checks),
            f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_9_reproducibility(tmp_path):
    first = tmp_path / "run"
    code = cli_main(["sample", "--config", "ex42", "--out", str(first), "--seed", "77"])
    replayed = tmp_path / "replay"
    code |= replay_manifest(first / "sample.manifest.json", replayed)
    byte_identical = ((first / "samples.csv").read_bytes()
                      == (replayed / "samples.csv").read_bytes())

    # sample i depends only on (seed, i): a batch is a prefix of any larger batch
    # and of the stream with the same keys
    cfg = make_config(n=128, seed=13)
    whole = sample_batch(replace(cfg, n=2000))
    streamed = np.array([z.values for z in islice(sample_stream(cfg), 128)])
    prefix = sample_batch(cfg)
    prefix_equal = (np.array_equal(prefix.grid_values, whole.grid_values[:128])
                    and np.array_equal(prefix.etas, whole.etas[:128])
                    and np.array_equal(prefix.grid_values, streamed))
    _finish(9, "replay and prefix reproducibility",
            code == 0 and byte_identical and prefix_equal,
            f"replay={byte_identical} prefix={prefix_equal}")
