"""Estimator behavior: exact recovery without noise, error structure, convergence."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ousignal import (
    FourierSignal,
    OperatorSpec,
    convergence_study,
    estimate_until_stable,
    inverse_propagate,
    load_config,
    noise_variance,
    run_estimate,
    sample_batch,
    sup_distance,
)
from ousignal import model, noise
from ousignal.model import OBSERVE_FOURIER, SampleSet

from _util import example_theta, make_config, random_signal

PI = math.pi
T0 = PI / 7


def test_noiseless_estimate_recovers_input_exactly():
    for form in ("grid", "fourier"):
        cfg = make_config(sigma=0.0, n=3, observation_form=form)
        report = run_estimate(sample_batch(cfg))
        assert report.sup_error < 1e-9
        assert report.max_mode_error < 1e-9


def test_noiseless_estimate_random_scenarios():
    rng = np.random.default_rng(123)
    for _ in range(10):
        theta = random_signal(rng, PI, 20)
        op = OperatorSpec.of(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        cfg = make_config(theta=theta, op=op, sigma=0.0, t0=rng.uniform(0.1, 1.0),
                          n=2, grid_points=int(rng.choice([41, 200])))
        assert run_estimate(sample_batch(cfg)).sup_error < 1e-9


def test_single_sample_error_is_decayed_constant_offset():
    cfg = make_config(n=1, seed=77)
    batch = sample_batch(cfg)
    eta = batch.etas[0]
    report = run_estimate(batch)
    decay = math.exp(-cfg.op.a0 * cfg.t0)
    assert report.c0_error == pytest.approx(2.0 * decay * eta, rel=1e-9)
    assert report.sup_error == pytest.approx(abs(decay * eta), rel=1e-9)
    assert report.max_mode_error < 1e-9
    assert report.n_used == 1


def test_mean_then_invert_equals_invert_then_mean():
    cfg = make_config(n=8, seed=4, observation_form=OBSERVE_FOURIER)
    batch = sample_batch(cfg)
    averaged_first = run_estimate(batch).estimate
    inverted = [inverse_propagate(batch.signal(i).padded(cfg.mode_count), cfg.op, cfg.t0)
                for i in range(batch.n)]
    averaged_last = FourierSignal(cfg.theta.half_period, sum(s.c0 for s in inverted) / batch.n,
                                  sum(s.c for s in inverted) / batch.n,
                                  sum(s.d for s in inverted) / batch.n)
    assert sup_distance(averaged_first, averaged_last) < 1e-10


def test_estimate_is_permutation_invariant():
    cfg = make_config(n=16, seed=9)
    batch = sample_batch(cfg)
    shuffled = SampleSet(cfg, etas=batch.etas[::-1].copy(),
                         grid_values=batch.grid_values[::-1].copy())
    a = run_estimate(batch).estimate
    b = run_estimate(shuffled).estimate
    assert sup_distance(a, b) < 1e-10


def test_estimate_is_linear_in_constant_shifts():
    cfg = make_config(n=5, seed=14)
    batch = sample_batch(cfg)
    w = 3.7
    shifted = SampleSet(cfg, etas=batch.etas, grid_values=batch.grid_values + w)
    plain = run_estimate(batch).estimate
    moved = run_estimate(shifted).estimate
    shift = math.exp(-cfg.op.a0 * cfg.t0) * w  # the constant term; c0 holds twice it
    expected = FourierSignal(plain.half_period, plain.c0 + 2.0 * shift, plain.c, plain.d)
    assert sup_distance(moved, expected) < 1e-10


def test_error_localization_with_strong_noise():
    for sigma in (150.0, 15000.0):
        for n in (1, 10, 100):
            cfg = make_config(sigma=sigma, n=n, seed=int(sigma) + n)
            report = run_estimate(sample_batch(cfg))
            assert report.max_mode_error < 1e-9


def test_sigma_scaling_is_exactly_linear_with_shared_seeds():
    # identical trial streams make the error ratio exactly the sigma ratio
    low = convergence_study(make_config(sigma=150.0, seed=3), [10], trials=20)
    high = convergence_study(make_config(sigma=300.0, seed=3), [10], trials=20)
    assert high.summary[0][1] / low.summary[0][1] == pytest.approx(2.0, rel=1e-9)


def test_amplification_capped_modes_are_zeroed_with_warning():
    # strongly damped modes cannot be inverted; they are dropped, not exploded
    theta = random_signal(np.random.default_rng(2), PI, 20, scale=1.0)
    op = OperatorSpec.of(1.0, 0.0, 1.0)
    cfg = make_config(theta=theta, op=op, sigma=0.1, t0=1.0, n=4, seed=6)
    batch = sample_batch(cfg)
    with pytest.warns(UserWarning, match="unrecoverable"):
        report = run_estimate(batch)
    # recoverable low modes survive: rate of mode 1 is exactly zero
    assert abs(report.estimate.c[0] - theta.c[0]) < 1e-6
    assert np.isfinite(report.sup_error)
    assert report.amplification_max <= 1e12


@pytest.mark.parametrize("seed", [1, 3, 11])
def test_both_estimators_zero_the_same_unrecoverable_modes(seed):
    # heat channel: modes 12..20 would need an inverse factor above the 1e12 cap. At
    # seeds 3 and 11 they read as exact zeros, and once went unreported.
    theta = FourierSignal.build(PI, c0=1.0, cos={15: 1.0}, mode_count=20)
    cfg = make_config(theta=theta, op=OperatorSpec.of(1.0, 0.0, 1.0), sigma=1.0, t0=0.2,
                      n=10, seed=seed)
    with pytest.warns(UserWarning, match="unrecoverable modes \\[12, .*, 20\\]"):
        mean = run_estimate(sample_batch(cfg)).estimate
    with pytest.warns(UserWarning, match="unrecoverable modes \\[12, .*, 20\\]"):
        report = estimate_until_stable(cfg, epsilon=0.0, n_max=10)
    assert report.n_used == 10
    for estimate in (mean, report.estimate):
        assert not np.any(estimate.c[11:]) and not np.any(estimate.d[11:])
    # the same ten samples: the two means agree to roundoff
    assert sup_distance(mean, report.estimate) < 1e-9


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(["grid", "fourier"]), n=st.integers(1, 40),
       modes=st.integers(1, 12), seed=st.integers(0, 2**63 - 1), quasi=st.booleans(),
       data_seed=st.integers(0, 2**32 - 1))
def test_both_estimators_agree_bit_for_bit_on_the_same_samples(form, n, modes, seed, quasi,
                                                               data_seed):
    # A.2 up to 1 puts the top modes of some scenarios past the amplification cap
    rng = np.random.default_rng(data_seed)
    op = OperatorSpec.of(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0))
    cfg = make_config(theta=random_signal(rng, PI, modes), op=op, sigma=rng.uniform(0.0, 200.0),
                      t0=rng.uniform(0.1, 1.0), n=n, mode_count=modes,
                      grid_points=2 * modes + 1 + int(rng.integers(0, 20)), seed=seed,
                      observation_form=form, quasi=quasi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = run_estimate(sample_batch(cfg))
        stream = estimate_until_stable(cfg, epsilon=0.0, n_max=cfg.n)
    assert (batch.converged, stream.converged) == (True, False)
    fields = [name for name in batch._fields if name not in ("converged", "estimate")]
    assert [float(getattr(stream, f)).hex() for f in fields] == \
        [float(getattr(batch, f)).hex() for f in fields]
    assert model._signal_row(stream.estimate).tobytes() == \
        model._signal_row(batch.estimate).tobytes()


def test_stable_estimate_converges_immediately_without_noise():
    cfg = make_config(sigma=0.0, n=1)
    report = estimate_until_stable(cfg, epsilon=1e-8, window=4)
    assert report.converged
    assert report.n_used == 4
    assert sup_distance(report.estimate, cfg.theta) < 1e-9


def test_stable_estimate_zero_epsilon_never_fires():
    cfg = make_config(sigma=0.0, n=1)
    report = estimate_until_stable(cfg, epsilon=0.0, window=2, n_max=25)
    assert not report.converged
    assert report.n_used == 25
    assert report.estimate is not None


def test_stable_estimate_converges_quickly_at_loose_tolerance():
    cfg = make_config(seed=21, n=1)
    v = noise_variance(cfg.noise, cfg.t0)
    epsilon = 10.0 * math.sqrt(v) * math.exp(-cfg.op.a0 * cfg.t0)
    report = estimate_until_stable(cfg, epsilon=epsilon, window=3, n_max=500)
    assert report.converged
    assert report.n_used < 50


def test_stable_estimate_works_on_fourier_stream():
    cfg = make_config(sigma=0.0, n=1, observation_form=OBSERVE_FOURIER)
    report = estimate_until_stable(cfg, epsilon=1e-8, window=2)
    assert report.converged and report.n_used == 2
    assert sup_distance(report.estimate, cfg.theta) < 1e-10


@pytest.mark.parametrize("n_max", [0, -5])
def test_stable_estimate_refuses_n_max_below_one(n_max):
    # n_max = 0 once drew one sample anyway and reported "no convergence after 1 samples"
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        estimate_until_stable(make_config(n=1), epsilon=1e-3, n_max=n_max)


def test_study_rejects_bad_grid():
    cfg = make_config()
    with pytest.raises(ValueError):
        convergence_study(cfg, [100, 50], trials=2)
    with pytest.raises(ValueError):
        convergence_study(cfg, [10, 10], trials=2)
    with pytest.raises(ValueError):
        convergence_study(cfg, [], trials=2)


def test_study_noiseless_has_undefined_slope():
    study = convergence_study(make_config(sigma=0.0), [10, 100], trials=3)
    assert study.slope is None
    assert all(row[2] < 1e-9 for row in study.rows)


def test_study_rows_and_summary_shape():
    study = convergence_study(make_config(seed=2), [10, 30], trials=4)
    assert len(study.rows) == 8
    assert len(study.summary) == 2
    assert {row[0] for row in study.rows} == {10, 30}
    assert study.slope is not None
    for _, mean, sd in study.summary:
        assert mean > 0 and sd >= 0


def test_study_error_shrinks_with_sample_size():
    study = convergence_study(make_config(seed=5), [10, 1000], trials=12)
    assert study.summary[1][1] < study.summary[0][1]
    assert -1.0 < study.slope < -0.2


@pytest.mark.parametrize("form", ["grid", "fourier"])
def test_blockwise_mean_is_bit_identical_to_matrix_mean_and_running_sum(form):
    # width 201 in both forms: three full blocks of 81 rows and five more
    cfg = make_config(theta=example_theta(mode_count=100), mode_count=100, grid_points=201,
                      observation_form=form, seed=8, n=3 * (noise._BLOCK // 201) + 5)
    batch = sample_batch(cfg)
    row = model._signal_row
    matrix = np.array([row(batch.signal(i)) for i in range(batch.n)])
    assert np.array_equal(row(batch.mean_signal()), np.mean(matrix, axis=0))

    stored = SampleSet(cfg, etas=batch.etas, **{
        "grid_values" if form == "grid" else "fourier_coef": matrix})
    assert np.array_equal(row(stored.mean_signal()), row(batch.mean_signal()))

    folded = run_estimate(batch).estimate
    running = estimate_until_stable(cfg, epsilon=0.0, n_max=cfg.n)
    assert running.n_used == cfg.n
    assert np.array_equal(row(running.estimate), row(folded))


def test_batch_estimate_memory_does_not_grow_with_n():
    # the whole (10000, 200) matrix alone would take 16 MB
    cfg = replace(load_config("ex42").scenario, n=10000, seed=3)
    tracemalloc.start()
    try:
        run_estimate(sample_batch(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
