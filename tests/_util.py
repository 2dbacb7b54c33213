"""Shared factories for randomized test scenarios."""

import random

import numpy as np

from ousignal import FourierSignal, GridSignal, NoiseParams, OperatorSpec, ScenarioConfig
from ousignal.model import _row_signal


def random_signal(rng, half_period=np.pi, mode_count=20, scale=5.0):
    c = rng.uniform(-scale, scale, mode_count)
    d = rng.uniform(-scale, scale, mode_count)
    return FourierSignal(half_period, rng.uniform(-scale, scale), c, d)


def signal_row(signal):
    """A signal as one row, as a SampleSet holds it: grid values, or c0, 0, c_1, d_1, ...,
    c_K, d_K (the c,d cells of its samples.csv lines k = 0..K)."""
    if isinstance(signal, GridSignal):
        return signal.values
    return np.column_stack([np.r_[signal.c0, signal.c], np.r_[0.0, signal.d]]).ravel()


def sample_rows(samples):
    """Every row of a SampleSet, in one (n, width) array."""
    return np.concatenate(list(samples._blocks()))


def sample_signals(samples):
    """Every sample of a SampleSet as the signal its row holds, in a list."""
    half_period = samples.config.theta.half_period
    return [_row_signal(half_period, samples.form, row) for row in sample_rows(samples)]


def example_theta(mode_count=20):
    """The bundled sampling preset's input signal."""
    return FourierSignal.build(np.pi, c0=1.0, cos={1: 5.0}, sin={5: 5.0},
                               mode_count=mode_count)


def example_op():
    return OperatorSpec.of(2.0, -1.0)


def make_config(theta=None, op=None, sigma=150.0, t0=np.pi / 7, n=4, mode_count=20,
                grid_points=200, seed=0, observation_form="grid", **kwargs):
    theta = example_theta(mode_count) if theta is None else theta
    op = example_op() if op is None else op
    noise = NoiseParams(sigma=sigma, a0=op.a0, kernel=kwargs.pop("kernel", "mean_reverting"),
                        series_terms=kwargs.pop("series_terms", 999))
    return ScenarioConfig(theta=theta, op=op, noise=noise, t0=t0, n=n,
                          mode_count=mode_count, grid_points=grid_points, seed=seed,
                          observation_form=observation_form, **kwargs)


def wideband_config_text(modes=2000, seed=2000):
    """Config text of a K = modes scenario with every mode live and a three-level sweep.

    Each coefficient is (u - 1/2) / k for a `random.Random` draw u, so the
    text is the same on every platform. The operator is dispersive only
    (A.0 and A.3), so no mode is damped away or overflows.
    """
    rng = random.Random(seed)
    lines = ["l = pi", f"c0 = {rng.random() - 0.5!r}"]
    for k in range(1, modes + 1):
        lines.append(f"c.{k} = {(rng.random() - 0.5) / k!r}")
        lines.append(f"d.{k} = {(rng.random() - 0.5) / k!r}")
    lines += ["A.0 = 1", "A.3 = 5e-7", "sigma = 1", "sigma_grid = 0.5, 5, 50", "t0 = 0.3",
              f"K = {modes}", f"G = {2 * modes + 1}", "n = 8", "seed = 11"]
    return "\n".join(lines) + "\n"
