"""Estimator behavior: exact recovery without noise, error structure, convergence."""

import inspect
import math
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ousignal import (
    FourierSignal,
    OperatorSpec,
    RunConfig,
    convergence_study,
    estimate_until_stable,
    inverse_propagate,
    load_config,
    noise_variance,
    run_estimate,
    sample_batch,
    sup_distance,
)
from ousignal import estimation, model, noise
from ousignal.config import parse_config_text, preset_text
from ousignal.model import OBSERVE_FOURIER, SampleSet

from _util import example_theta, make_config, random_signal, sample_rows, sample_signals, signal_row

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
    inverted = [inverse_propagate(z.padded(cfg.mode_count), cfg.op, cfg.t0)
                for z in sample_signals(batch)]
    averaged_last = FourierSignal(cfg.theta.half_period, sum(s.c0 for s in inverted) / batch.n,
                                  sum(s.c for s in inverted) / batch.n,
                                  sum(s.d for s in inverted) / batch.n)
    assert sup_distance(averaged_first, averaged_last) < 1e-10


def test_estimate_is_permutation_invariant():
    cfg = make_config(n=16, seed=9)
    batch = sample_batch(cfg)
    shuffled = SampleSet(cfg, "grid", lambda: iter([batch.grid_values[::-1].copy()]))
    a = run_estimate(batch).estimate
    b = run_estimate(shuffled).estimate
    assert sup_distance(a, b) < 1e-10


def test_estimate_is_linear_in_constant_shifts():
    cfg = make_config(n=5, seed=14)
    batch = sample_batch(cfg)
    w = 3.7
    shifted = SampleSet(cfg, "grid", lambda: iter([batch.grid_values + w]))
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


def test_estimator_alone_zeroes_the_modes_past_the_cap():
    # sigma_k = 1 - k^2 under (1, 0, 1): at t0 = 0.1 modes 17..20 need an inverse factor
    # above 1e12 = exp(27.6). inverse_propagate applies any factor that stays finite; the
    # estimator zeroes those modes first and reports the largest factor it keeps
    op = OperatorSpec.of(1.0, 0.0, 1.0)
    busy = FourierSignal.build(PI, c0=1.0, cos={16: 1e-3, 20: 1e-3}, mode_count=20)
    assert inverse_propagate(busy, op, 0.1).c[19] == pytest.approx(1e-3 * math.exp(39.9))
    cfg = make_config(theta=busy, op=op, t0=0.1, observation_form=OBSERVE_FOURIER)
    with pytest.warns(UserWarning, match=r"unrecoverable modes \[17, 18, 19, 20\]"):
        estimate, amplification_max = estimation._invert(busy, cfg)
    kept = FourierSignal.build(PI, c0=1.0, cos={16: 1e-3}, mode_count=20)
    expected = inverse_propagate(kept, op, 0.1)
    assert (estimate.c0, estimate.c[15], estimate.c[19]) == (expected.c0, expected.c[15], 0.0)
    assert np.array_equal(estimate.c, expected.c) and np.array_equal(estimate.d, expected.d)
    assert amplification_max == pytest.approx(math.exp(25.5), rel=1e-12)
    # no mode past the cap: the largest kept factor may be the constant mode's exp(-A_0 t0)
    quiet = FourierSignal.build(PI, c0=1.0, cos={1: 1.0}, mode_count=2)
    cfg = make_config(theta=quiet, op=OperatorSpec.of(2.0), t0=0.5, mode_count=2,
                      grid_points=5, observation_form=OBSERVE_FOURIER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, amplification_max = estimation._invert(quiet, cfg)
    assert amplification_max == math.exp(-2.0 * 0.5)


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
        report = estimate_until_stable(sample_batch(cfg), epsilon=0.0)
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
        stream = estimate_until_stable(sample_batch(cfg), epsilon=0.0)
    assert (batch.converged, stream.converged) == (True, False)
    fields = [name for name in batch._fields if name not in ("converged", "estimate")]
    assert [float(getattr(stream, f)).hex() for f in fields] == \
        [float(getattr(batch, f)).hex() for f in fields]
    assert signal_row(stream.estimate).tobytes() == \
        signal_row(batch.estimate).tobytes()


def test_stable_estimate_converges_immediately_without_noise():
    cfg = make_config(sigma=0.0, n=1)
    report = estimate_until_stable(sample_batch(replace(cfg, n=RunConfig.n_max)), epsilon=1e-8,
                                   window=4)
    assert report.converged
    assert report.n_used == 4
    assert sup_distance(report.estimate, cfg.theta) < 1e-9


def test_stable_estimate_zero_epsilon_never_fires():
    cfg = make_config(sigma=0.0, n=1)
    report = estimate_until_stable(sample_batch(replace(cfg, n=25)), epsilon=0.0, window=2)
    assert not report.converged
    assert report.n_used == 25
    assert report.estimate is not None


@pytest.mark.parametrize("sampler, gaussians", [("exact", 100), ("series", 100 * 100)])
def test_stable_estimate_draws_no_row_past_n_max(monkeypatch, sampler, gaussians):
    # the stream's blocks once doubled from one row, so n_max = 100 drew 128 rows: 128
    # Gaussians for the exact sampler, 12,800 for the series sampler at 99 terms
    drawn, blocks = [], noise.RandomSource.blocks

    def counted(self, rows, width):
        drawn.append(rows * width)
        return blocks(self, rows, width)

    monkeypatch.setattr(noise.RandomSource, "blocks", counted)
    cfg = make_config(n=1, seed=4, sampler=sampler, series_terms=99)
    report = estimate_until_stable(sample_batch(replace(cfg, n=100)), epsilon=0.0)
    assert not report.converged and report.n_used == 100
    assert sum(drawn) == gaussians


def test_stable_estimate_converges_quickly_at_loose_tolerance():
    cfg = make_config(seed=21, n=1)
    v = noise_variance(cfg.noise, cfg.t0)
    epsilon = 10.0 * math.sqrt(v) * math.exp(-cfg.op.a0 * cfg.t0)
    report = estimate_until_stable(sample_batch(replace(cfg, n=500)), epsilon=epsilon, window=3)
    assert report.converged
    assert report.n_used < 50


def test_stable_estimate_works_on_fourier_stream():
    cfg = make_config(sigma=0.0, n=1, observation_form=OBSERVE_FOURIER)
    report = estimate_until_stable(sample_batch(replace(cfg, n=RunConfig.n_max)), epsilon=1e-8,
                                   window=2)
    assert report.converged and report.n_used == 2
    assert sup_distance(report.estimate, cfg.theta) < 1e-10


@pytest.mark.parametrize("form", ["grid", "fourier"])
def test_both_estimators_name_a_row_sum_that_overflows(monkeypatch, form):
    # two finite rows with 1e308 in the same column: their sum overflows a float. Both
    # estimators once warned and then refused the infinite mean as if a row were not finite
    cfg = make_config(sigma=0.0, n=2, observation_form=form)
    rows = np.zeros((2, cfg.grid_points if form == "grid" else 2 * cfg.mode_count + 2))
    rows[:, 0] = 1e308
    monkeypatch.setattr(model, "_row_blocks", lambda config, *keys: iter([rows]))
    batch = SampleSet(cfg, form, lambda: iter([rows.copy()]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            run_estimate(batch)
        with pytest.raises(FloatingPointError, match="overflow"):
            estimate_until_stable(sample_batch(cfg), epsilon=0.0)


def test_stable_estimate_defaults_are_the_run_config_defaults():
    defaults = inspect.signature(estimate_until_stable).parameters
    assert defaults["window"].default == RunConfig.window


def _per_row_rule(config, epsilon, window, n_max):
    """The Cauchy rule as it once ran: fold one row at a time, invert every running mean, and
    take the sup-norm gap of successive estimates."""
    total, inverted = -0.0, None
    gaps = deque(maxlen=window - 1)
    rows = chain.from_iterable(sample_batch(replace(config, n=n_max))._blocks())
    for n_used, row in enumerate(rows, start=1):
        with np.errstate(over="raise"):
            total = np.add(total, row, out=row)
        previous = inverted
        inverted = estimation._invert(
            model._row_signal(config.theta.half_period, config.observation_form, total / n_used),
            config)
        if previous is not None:
            gaps.append(sup_distance(inverted[0], previous[0]))
        converged = len(gaps) == window - 1 and all(g < epsilon for g in gaps)
        if converged or n_used >= n_max:
            return estimation._report(config, n_used, converged, *inverted)


_HEAT = ("l = pi\nc0 = 1\nc.15 = 1\nA.0 = 1\nA.1 = 0\nA.2 = 1\nsigma = 1\nt0 = 0.2\nK = 20\n"
         "G = 200\nestimator = infinite\nepsilon = 1e-2\n")
# the perfbench stream-quasi config at seed 65: it stops at n = 3726 = 46 * 81, on the last
# row of a block of _BLOCK // G = 81 rows
_BLOCK_END = ("l = pi\nc0 = 0.7411752792257991\nc.3 = 0.17463744516215485\n"
              "d.3 = 4.654815056170822\nc.10 = 3.422109661749701\nd.10 = -1.2188393814612697\n"
              "c.20 = 0.34033239597702636\nd.20 = -3.8265388167106975\nA.0 = 2\nA.1 = -1\n"
              "A.2 = 0\nsigma = 1\nt0 = 0.17\nK = 20\nG = 200\nquasi = 1\nquasi_base = 19784\n"
              "sampler = series\nseries_terms = 199\nestimator = infinite\nepsilon = 2e-4\n"
              "window = 400\nn_max = 20000\n")


def _ex42_stream(*lines, epsilon="0.1"):
    return preset_text("ex42") + f"estimator = infinite\nepsilon = {epsilon}\n" + "".join(
        line + "\n" for line in lines)


@pytest.mark.parametrize("text", [
    pytest.param(_ex42_stream(), id="grid"),
    pytest.param(_ex42_stream("observation = fourier"), id="fourier"),
    pytest.param(_ex42_stream("sampler = series"), id="series"),
    pytest.param(_ex42_stream("kernel = growth", "window = 10"), id="growth"),
    pytest.param(_ex42_stream("quasi = 1", "quasi_base = 7"), id="quasi-grid"),
    pytest.param(_ex42_stream("quasi = 1", "quasi_base = 7", "observation = fourier",
                              "sampler = series"), id="quasi-fourier-series"),
    pytest.param(_HEAT, id="heat-grid"),
    pytest.param(_HEAT + "observation = fourier\n", id="heat-fourier"),
    pytest.param(_ex42_stream("n_max = 30", epsilon="1e-9"), id="n-max"),
    pytest.param(_BLOCK_END, id="block-end"),
])
def test_stable_estimate_stops_where_the_per_row_rule_stops(text):
    # the gap of two successive estimates, read from the running mean of the rows' constant
    # terms, stops the fold where inverting every running mean did, with the same bytes
    run = parse_config_text(text)
    cfg = replace(run.scenario, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the heat channel zeroes modes 12..20
        reference = _per_row_rule(cfg, run.epsilon, run.window, run.n_max)
        report = estimate_until_stable(sample_batch(replace(cfg, n=run.n_max)), run.epsilon,
                                       run.window)
    assert (report.n_used, report.converged) == (reference.n_used, reference.converged)
    fields = [name for name in report._fields if name != "estimate"]
    assert [float(getattr(report, f)).hex() for f in fields] == \
        [float(getattr(reference, f)).hex() for f in fields]
    assert signal_row(report.estimate).tobytes() == signal_row(reference.estimate).tobytes()
    if text == _BLOCK_END:
        assert report.converged and report.n_used == 3726
        assert report.n_used % (noise._BLOCK // cfg.grid_points) == 0


def test_stable_estimate_inverts_once(monkeypatch):
    # every running mean was once inverted: 144 calls for this stream, which stops at 144
    calls, invert = [], estimation._invert

    def counted(mean, config):
        calls.append(mean)
        return invert(mean, config)

    monkeypatch.setattr(estimation, "_invert", counted)
    cfg = replace(load_config("ex42").scenario, seed=2)
    report = estimate_until_stable(sample_batch(replace(cfg, n=RunConfig.n_max)), epsilon=0.1)
    assert report.converged and report.n_used == 144
    assert len(calls) == 1


@st.composite
def _loglog_fits(draw):
    n_grid = sorted(draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=12, unique=True)))
    means = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300),
                          min_size=len(n_grid), max_size=len(n_grid)))
    return n_grid, np.array(means)


@settings(max_examples=300, deadline=None)
@given(_loglog_fits())
@example(([1, 2, 3, 4, 5, 6, 7], np.full(7, 0.03125)))
@example((list(range(10**9 - 6, 10**9 + 1)), np.full(7, 0.03125)))
def test_loglog_slope_is_within_a_few_ulp_of_the_exact_slope(fit):
    n_grid, means = fit
    x, y = np.log(np.array(n_grid, dtype=float)), np.log(means)
    xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((a - x_bar) ** 2 for a in xs)
    exact = sum((a - x_bar) * (b - y_bar) for a, b in zip(xs, ys)) / sxx
    # xc and yc as the slope forms them, their means rounded; rounding both means adds
    # the second-order N dx dy / sxx, which alone is seen when the means are all equal
    xc, yc = x - x.mean(), y - y.mean()
    scale = max(math.sqrt(np.dot(yc, yc) / np.dot(xc, xc)), abs(float(exact)))
    centring = (len(xs) * abs(Fraction(x.mean()) - x_bar) * abs(Fraction(y.mean()) - y_bar)
                / sxx)
    error = abs(Fraction(estimation._loglog_slope(n_grid, means)) - exact)
    assert error <= 4 * np.finfo(float).eps * Fraction(scale) + centring


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


@settings(max_examples=25, deadline=None)
@given(form=st.sampled_from(["grid", "fourier"]), quasi=st.booleans(),
       kernel=st.sampled_from(["mean_reverting", "growth"]),
       sampler=st.sampled_from(["exact", "series"]), modes=st.integers(1, 20),
       n_grid=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted),
       trials=st.integers(1, 3), seed=st.integers(0, 2**63 - 1),
       data_seed=st.integers(0, 2**32 - 1))
def test_study_rows_equal_separately_drawn_estimates(form, quasi, kernel, sampler, modes, n_grid,
                                                     trials, seed, data_seed):
    # the trials share one channel and one noiseless row; each row must still be the
    # estimate of its own batch, drawn at its own keys and quasi shift, bit for bit
    rng = np.random.default_rng(data_seed)
    op = OperatorSpec.of(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.3, 0.3))
    cfg = make_config(theta=random_signal(rng, PI, modes), op=op, sigma=rng.uniform(0.0, 200.0),
                      t0=rng.uniform(0.05, 1.0), mode_count=modes,
                      grid_points=2 * modes + 1 + int(rng.integers(0, 10)), seed=seed,
                      observation_form=form, quasi=quasi, kernel=kernel, sampler=sampler,
                      series_terms=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a damped mode zeroed past the cap warns
        study = convergence_study(cfg, n_grid, trials)
        rows, shift = iter(study.rows), 0
        for n in n_grid:
            for trial in range(trials):
                batch = sample_batch(replace(cfg, n=n), subkey=(n, trial), quasi_shift=shift)
                report = run_estimate(batch)
                shift += 1
                n_row, trial_row, *errors = next(rows)
                assert (n_row, trial_row) == (n, trial)
                assert [e.hex() for e in errors] == [
                    report.sup_error.hex(), report.c0_error.hex(), report.max_mode_error.hex()]
    assert next(rows, None) is None


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
    row = signal_row
    matrix = sample_rows(batch)
    assert np.array_equal(row(batch._mean()[0]), np.mean(matrix, axis=0))

    stored = SampleSet(cfg, form, lambda: iter([matrix.copy()]))
    assert np.array_equal(row(stored._mean()[0]), row(batch._mean()[0]))

    folded = run_estimate(batch).estimate
    running = estimate_until_stable(sample_batch(cfg), epsilon=0.0)
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


def test_drawn_estimate_memory_does_not_grow_from_1e4_to_1e6_samples():
    # K = 1 on G = 3 points keeps the fold fast. The n = 1e6 noise draws alone are 8 MB,
    # which a batch held until it drew its rows as it is read; now the peak is a noise
    # block and a row block (131 kB each), and the 1e4 draws fill less than one
    theta = FourierSignal.build(PI, c0=1.0, cos={1: 2.0}, mode_count=1)
    peaks = {}
    for n in (10_000, 1_000_000):
        cfg = make_config(theta=theta, mode_count=1, grid_points=3, n=n, seed=3)
        run_estimate(sample_batch(replace(cfg, n=1)))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_estimate(sample_batch(cfg))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] < peaks[10_000] + 8 * noise._BLOCK
    assert peaks[1_000_000] < 1e6
