"""Config parsing, presets, and the command-line harness end to end."""

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import shutil
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import wideband_config_text
from ousignal import (ConfigError, FourierSignal, NoiseParams, RunConfig, ScenarioConfig, cli,
                      estimation, load_config, model, noise, noise_variance, ou_joint_pairs,
                      parse_config_text, spectral)
from ousignal.cli import build_parser, main, replay_manifest
from ousignal.config import _KEYS, PRESETS, parse_number, preset_text
from ousignal.manifest import RunManifest

PI = math.pi

MINIMAL = """
l = pi
c0 = 1
c.1 = 5
d.5 = 5
A.0 = 2
A.1 = -1
sigma = 150
t0 = pi/7
K = 20
G = 200
n = 4
seed = 11
"""


def test_parse_minimal_config():
    run = parse_config_text(MINIMAL)
    sc = run.scenario
    assert sc.theta.half_period == PI
    assert sc.theta.c0 == 1.0
    assert sc.theta.c[0] == 5.0
    assert sc.theta.d[4] == 5.0
    assert sc.op.coefficients == (2.0, -1.0, 0.0)
    assert sc.noise.sigma == 150.0
    assert sc.t0 == pytest.approx(PI / 7)
    assert (sc.mode_count, sc.grid_points, sc.n, sc.seed) == (20, 200, 4, 11)


def test_parse_reports_line_numbers():
    bad = "l = pi\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match="2"):
        parse_config_text(bad, source="test.cfg")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("A.0 = 1\nA.0 = 2\nt0 = 1\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("A.0 = 1\nt0 = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("A.0 = zebra\nt0 = 1\n")


def test_parse_requires_operator_and_time():
    with pytest.raises(ConfigError, match="A.0"):
        parse_config_text("t0 = 1\n")
    with pytest.raises(ConfigError, match="t0"):
        parse_config_text("A.0 = 1\n")


def test_parse_rejects_inconsistent_scenario():
    with pytest.raises(ConfigError, match="resolve"):
        parse_config_text("A.0 = 2\nt0 = 1\nK = 20\nG = 40\n")
    with pytest.raises(ConfigError, match="mode_count"):
        parse_config_text("A.0 = 2\nt0 = 1\nK = 3\nc.5 = 1\nG = 100\n")
    with pytest.raises(ConfigError, match="one of"):
        parse_config_text("A.0 = 2\nt0 = 1\nkernel = wrong\n")


def test_parse_pi_tokens():
    run = parse_config_text("A.0 = 1\nt0 = pi/14\nl = pi\n")
    assert run.scenario.t0 == pytest.approx(PI / 14)
    assert run.scenario.theta.half_period == PI


def test_parse_indexed_keys_by_their_index():
    run = parse_config_text("A.00 = 2\nA.01 = -1\nt0 = 1\nc.003 = 4\nd.01 = 5\n")
    assert run.scenario.op.coefficients == (2.0, -1.0, 0.0)
    assert run.scenario.theta.c[2] == 4.0 and run.scenario.theta.d[0] == 5.0


def test_parse_number_pi_over_zero_is_a_value_error():
    with pytest.raises(ValueError, match="integer >= 1"):  # once a ZeroDivisionError
        parse_number("-pi/0")
    assert parse_number(" - pi / 07 ") == -PI / 7


# Messages as the line-by-line parser gave them; a structural error on a later
# line wins over a bad value on an earlier one.
_BASE = "A.0 = 2\nt0 = 1\n"


@pytest.mark.parametrize("text, message", [
    ("l = pi\nbogus_key = 3\n", "case.cfg:2: unknown key 'bogus_key'"),
    ("A.0 = 1\nA.0 = 2\nt0 = 1\n", "case.cfg:2: duplicate key 'A.0' (first given on line 1)"),
    ("A.0 = 1\nt0 = 1\nnot a pair\n", "case.cfg:3: expected 'key = value', got 'not a pair'"),
    ("A.0 = zebra\nt0 = 1\n",
     "case.cfg:1: bad value for 'A.0': could not convert string to float: 'zebra'"),
    ("t0 = 1\n", "case.cfg: operator needs at least A.0"),
    ("A.0 = 1\n", "case.cfg: observation time t0 is required"),
    (_BASE + "kernel = wrong\n",
     "case.cfg:3: kernel must be one of mean_reverting, growth; got 'wrong'"),
    (_BASE + "1x = 2\n", "case.cfg:3: malformed key '1x'"),
    (_BASE + "c. = 2\n", "case.cfg:3: malformed key 'c.'"),
    (_BASE + "c.1.2 = 2\n", "case.cfg:3: malformed key 'c.1.2'"),
    (_BASE + "c.x = 2\n", "case.cfg:3: malformed key 'c.x'"),
    (_BASE + "_a = 2\n", "case.cfg:3: malformed key '_a'"),
    (_BASE + " = 2\n", "case.cfg:3: malformed key ''"),
    (_BASE + "c.1 = # nothing\n", "case.cfg:3: empty value for key 'c.1'"),
    (_BASE + "c.0 = zebra\n", "case.cfg:3: mode indices start at 1; use c0 for the constant term"),
    # an indexed key is its index: c.01 repeats c.1, and A.00 is A.0
    (_BASE + "c.1 = 1\nc.01 = 2\nc.1 = 3\n",
     "case.cfg:4: duplicate key 'c.01' (first given on line 3)"),
    ("A.0 = 2\nA.00 = 3\nt0 = 1\n", "case.cfg:2: duplicate key 'A.00' (first given on line 1)"),
    ("A.00 = 2\nt0 = 1\nd.7 = 1\nd.007 = 1\n",
     "case.cfg:4: duplicate key 'd.007' (first given on line 3)"),
    (_BASE + "c.1 = pi/7/2\n",
     "case.cfg:3: bad value for 'c.1': could not convert string to float: 'pi/7/2'"),
    (_BASE + "A.1 = pi/+7\n",
     "case.cfg:3: bad value for 'A.1': could not convert string to float: 'pi/+7'"),
    (_BASE + "n = 2.5\n",
     "case.cfg:3: bad value for 'n': invalid literal for int() with base 10: '2.5'"),
    (_BASE + "sigma_grid = 1, , 2\n",
     "case.cfg:3: bad value for 'sigma_grid': could not convert string to float: ''"),
    (_BASE + "foo.3 = 1\n", "case.cfg:3: unknown key 'foo.3'"),
    (_BASE + "c.1 = zebra\nc.1 = 2\n", "case.cfg:4: duplicate key 'c.1' (first given on line 3)"),
    (_BASE + "c.1 = zebra\nwhat = ever\n",
     "case.cfg:3: bad value for 'c.1': could not convert string to float: 'zebra'"),
    (_BASE + "c.1 = zebra\nno pair here\n",
     "case.cfg:4: expected 'key = value', got 'no pair here'"),
])
def test_parse_error_messages_and_lines(text, message):
    with pytest.raises(ConfigError) as caught:
        parse_config_text(text, source="case.cfg")
    assert str(caught.value) == message


def test_parse_index_past_int_digit_limit_is_a_malformed_key():
    # duplicates are found by index, so an index int() cannot read is a malformed key
    with pytest.raises(ConfigError, match="^case.cfg:3: malformed key 'c.999"):
        parse_config_text(_BASE + "c." + "9" * 5000 + " = 1\n", source="case.cfg")


@pytest.mark.parametrize("line, message", [
    ("quasi = 5", "case.cfg:3: quasi must be 0 or 1; got '5'"),
    ("quasi = -3", "case.cfg:3: quasi must be 0 or 1; got '-3'"),
    ("quasi = x", "case.cfg:3: bad value for 'quasi': invalid literal for int() with base 10: 'x'"),
    ("seed = -4", "case.cfg:3: seed must be an integer >= 0; got '-4'"),
])
def test_parse_refuses_quasi_outside_0_and_1_and_a_negative_seed(line, message):
    # quasi = 5 and quasi = -3 once ran quasi mode; seed = -4 once failed in numpy's seeding
    with pytest.raises(ConfigError) as caught:
        parse_config_text(_BASE + line + "\n", source="case.cfg")
    assert str(caught.value) == message


# for each non-indexed key, a valid value other than its default, as text and as parsed
_NON_DEFAULTS = {
    "l": ("pi/2", PI / 2), "c0": ("3", 3.0), "sigma": ("4", 4.0), "kernel": ("growth", "growth"),
    "series_terms": ("7", 7), "t0": ("0.5", 0.5), "n": ("3", 3), "K": ("4", 4), "G": ("11", 11),
    "seed": ("5", 5), "quasi": ("1", True), "quasi_base": ("6", 6),
    "observation": ("fourier", "fourier"), "sampler": ("series", "series"),
    "series_variant": ("paper_faithful", "paper_faithful"), "sigma_grid": ("1, 2", (1.0, 2.0)),
    "estimator": ("infinite", "infinite"), "epsilon": ("0.25", 0.25), "window": ("3", 3),
    "n_max": ("9", 9),
}


def _field_value(run: RunConfig, owner, name):
    """The value a parsed config gives field name of owner."""
    sc = run.scenario
    return getattr({FourierSignal: sc.theta, NoiseParams: sc.noise, ScenarioConfig: sc,
                    RunConfig: run}[owner], name)


def _field_default(owner, name):
    if owner is FourierSignal:  # theta is built by FourierSignal.build
        return inspect.signature(FourierSignal.build).parameters[name].default
    return next(f.default for f in dataclasses.fields(owner) if f.name == name)


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_each_config_key_sets_its_field_and_defaults_to_the_field_default(key):
    assert set(_NON_DEFAULTS) == set(_KEYS)
    owner, name, _ = _KEYS[key]
    text, value = _NON_DEFAULTS[key]
    lines = {"A.0": "2", "t0": "1", "K": "5", key: text}
    run = parse_config_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert _field_value(run, owner, name) == value != _field_default(owner, name)
    if key == "t0":  # required
        return
    bare = parse_config_text("A.0 = 2\nt0 = 1\n")
    # the one config-level default: a config without a seed leaves it to the command
    expected = None if key == "seed" else _field_default(owner, name)
    assert _field_value(bare, owner, name) == expected


_SUMMARY = {"half_period": PI, "operator": [2.0, -1.0, 0.0], "sigma": 150.0,
            "kernel": "mean_reverting", "series_terms": 999, "t0": 0.4487989505128276, "n": 4,
            "mode_count": 20, "grid_points": 200, "seed": None, "quasi": False, "quasi_base": 1,
            "observation_form": "grid", "sampler": "exact", "series_variant": "variance_matched"}


@pytest.mark.parametrize("name, summary", [
    ("ex41", {**_SUMMARY, "operator": [2.0, -10.0, 0.0], "sigma": 1.174, "n": 1}),
    ("ex42", _SUMMARY),
    ("ex43", {**_SUMMARY, "n": 10}),
    ("wideband", {**_SUMMARY, "operator": [1.0, 0.0, 0.0, 5e-07, 0.0], "sigma": 1.0, "t0": 0.3,
                  "n": 8, "mode_count": 2000, "grid_points": 4001, "seed": 11}),
])
def test_scenario_summaries_match_the_pinned_literals(name, summary):
    text = wideband_config_text() if name == "wideband" else preset_text(name)
    assert parse_config_text(text).scenario.to_dict() == summary


@pytest.mark.parametrize("order, code", [(1000, 0), (1001, 2), (20000, 2)])
def test_cli_operator_order_above_1000_exits_2(tmp_path, capsys, order, code):
    # the coefficient list and mode_spectrum's loop over it have max(A index) + 1 entries
    cfg = tmp_path / "order.cfg"
    cfg.write_text(f"A.0 = 1\nK = 2\nt0 = 1\nA.{order} = 1e-300\n")
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert f"order.cfg:4: operator order {order} is above the limit of 1000" in err


def test_parse_wideband_config_gives_the_bits_of_float():
    text = wideband_config_text()
    theta = parse_config_text(text).scenario.theta
    tokens = dict(line.split(" = ") for line in text.splitlines())
    for column, prefix in ((theta.c, "c."), (theta.d, "d.")):
        expected = np.array([float(tokens[f"{prefix}{k}"]) for k in range(1, 2001)])
        assert column.tobytes() == expected.tobytes()
    assert theta.c0 == float(tokens["c0"])


def test_presets_load_and_match_expectations():
    ex41 = load_config("ex41").scenario
    assert ex41.op.coefficients == (2.0, -10.0, 0.0)
    assert ex41.theta.c[0] == 15.0 and ex41.theta.c[2] == 3.0 and ex41.theta.c[7] == 1.0
    assert ex41.theta.d[2] == 5.0 and ex41.theta.d[4] == 15.0
    assert ex41.noise.sigma == 1.174

    ex42 = load_config("ex42").scenario
    assert ex42.op.coefficients == (2.0, -1.0, 0.0)
    assert ex42.theta.c[0] == 5.0 and ex42.theta.d[4] == 5.0
    assert ex42.noise.sigma == 150.0 and ex42.n == 4
    assert ex42.t0 == pytest.approx(PI / 7)

    ex43 = load_config("ex43")
    assert ex43.scenario.n == 10
    assert ex43.sigma_grid == (150.0, 1500.0, 7500.0, 15000.0)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_text("ex99")


# ---------------------------------------------------------------------------
# CLI commands


def run_cli(*argv) -> int:
    return main(list(argv))


def test_cli_spectrum_first_order(tmp_path):
    assert run_cli("spectrum", "--config", "ex42", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,sigma,omega"
    assert lines[1] == "0,2,0"
    for k in range(1, 21):
        cells = lines[k + 1].split(",")
        assert cells == [str(k), "2", str(-k)]
    assert (tmp_path / "spectrum.manifest.json").exists()


def test_cli_spectrum_zero_order_has_no_rotation(tmp_path):
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text("A.0 = 3\nt0 = 1\nK = 5\nG = 16\n")
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path)) == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "0" for row in rows)


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("A.0 = 2\nt0 = pi/7\nwhat = ever\n")
    assert run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "what" in err and ":3:" in err  # diagnostic names the key and line


def test_cli_evolve_initial_frame_is_input(tmp_path):
    assert run_cli("evolve", "--config", "ex41", "--out", str(tmp_path),
                   "--times", "0,0.1") == 0
    lines = (tmp_path / "frames.csv").read_text().splitlines()
    assert lines[0] == "t,x,value"
    theta = load_config("ex41").scenario.theta
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(theta.evaluate(-PI), abs=1e-12)


def test_cli_evolve_overflow_exits_3(tmp_path, capsys):
    code = run_cli("evolve", "--config", "ex41", "--out", str(tmp_path),
                   "--times", "0,400")
    assert code == 3
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sample", "estimate"])
def test_cli_growth_noise_overflow_exits_3(tmp_path, capsys, command):
    # 2 A.0 t0 = 1600: the growth kernel's noise variance overflows a float;
    # this once ended in an OverflowError traceback
    cfg = tmp_path / "growth.cfg"
    cfg.write_text("A.0 = 2\nsigma = 1\nt0 = 400\nK = 2\nG = 8\nseed = 1\nkernel = growth\n")
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "numeric instability" in err and "mode 0" in err and "Traceback" not in err


# ex42 under the growth kernel, the series sampler, or both: the series path is read on any
# horizon (ex42's mean-reverting clock reaches u = 5.02) and under either kernel
KERNEL_SAMPLER_CASES = {"growth": "kernel = growth\n", "series": "sampler = series\n",
                        "growth-series": "kernel = growth\nsampler = series\n"}


@pytest.mark.parametrize("case", KERNEL_SAMPLER_CASES)
def test_cli_growth_kernel_and_series_sampler_are_first_class_runs(tmp_path, capsys, case):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(preset_text("ex42") + KERNEL_SAMPLER_CASES[case] + "observation = fourier\n")
    common = ["--config", str(cfg), "--seed", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sample", *common, "--n", "4000", "--out", str(tmp_path / "sample")) == 0
        assert run_cli("estimate", *common, "--out", str(tmp_path / "estimate")) == 0
        assert run_cli("convergence", *common, "--n-grid", "10,20", "--trials", "2",
                       "--out", str(tmp_path / "convergence")) == 0
        verified = run_cli("verify", *common, "--n", "2000", "--out", str(tmp_path / "verify"))
    assert capsys.readouterr().err == ""
    z = np.loadtxt(tmp_path / "verify" / "verify.csv", delimiter=",", skiprows=1,
                   usecols=6)
    assert verified == (0 if np.all(np.abs(z) <= 3.0) else 3)  # 3 only on a chance |z| > 3
    # the constant term c0 / 2 of each sample, against the kernel's variance at 3 SE
    rows = np.loadtxt(tmp_path / "sample" / "samples.csv", delimiter=",", skiprows=1)
    constant = rows[rows[:, 1] == 0, 2] / 2.0
    scenario = load_config(str(cfg)).scenario
    variance = noise_variance(scenario.noise, scenario.t0)
    assert abs(constant.var(ddof=1) - variance) < 3 * variance * math.sqrt(2.0 / 3999)


def test_cli_evolve_path_noise_past_the_unit_clock_warns_nothing(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("evolve", "--config", "ex42", "--noise", "path", "--times", "0:pi/7:4",
                       "--seed", "1", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""
    assert len((tmp_path / "frames.csv").read_text().splitlines()) == 1 + 4 * 200


@pytest.mark.parametrize("fill", ["c0 = 1", "c.1 = 1", "c.2 = 1"])
@pytest.mark.parametrize("command", ["spectrum", "evolve", "sample", "estimate"])
def test_cli_non_finite_mode_rate_exits_3(tmp_path, capsys, command, fill):
    # sigma_2 = 4e308 overflows to inf; spectrum once wrote "2,inf,0" and the
    # other commands exited 0 when the input left mode 2 empty
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"A.0 = 1\nA.2 = -1e308\n{fill}\nsigma = 1\nt0 = 0.1\n"
                   "K = 2\nG = 10\nn = 3\nseed = 1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "numeric instability: mode 2 has a rate that is not finite" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


_EX42 = preset_text("ex42")
# omega_1 = 1e10, so at t = 1e300 the rotation angle omega_1 t overflows a float
_ROTATING = ("l = pi\nc.1 = 1\nA.0 = 1\nA.1 = 1e10\nA.2 = 1\nsigma = 0\nt0 = 1\nK = 2\nG = 8\n"
             "seed = 1\n")


@pytest.mark.parametrize("argv, text, code, message", [
    (["sample"], _EX42.replace("t0 = pi/7", "t0 = inf"), 2,
     "observation time t0 must be positive and finite, got inf"),
    (["estimate"], _EX42.replace("t0 = pi/7", "t0 = inf"), 2,
     "observation time t0 must be positive and finite, got inf"),
    (["sample"], _EX42.replace("t0 = pi/7", "t0 = 1e308"), 3,
     "the solution map over t=1e+308 overflows at mode 0: coefficient magnitude would reach "
     "exp(inf)"),
    (["estimate"], _EX42.replace("t0 = pi/7", "t0 = 1e308"), 3,
     "the solution map over t=1e+308 overflows at mode 0: coefficient magnitude would reach "
     "exp(inf)"),
    (["evolve", "--times", "nan"], _EX42, 2,
     "frame times must be non-negative and finite, got nan"),
    (["evolve", "--times", "0,inf"], _EX42, 2,
     "frame times must be non-negative and finite, got inf"),
    (["evolve", "--times", "0:inf:3"], _EX42, 2,
     "frame times must be non-negative and finite, got '0:inf:3'"),
    (["evolve", "--times", "0,1e300"], _ROTATING, 3,
     "the solution map over t=1e+300 rotates mode 1 by an angle that is not finite (inf)"),
], ids=["sample-t0-inf", "estimate-t0-inf", "sample-t0-1e308", "estimate-t0-1e308",
        "evolve-nan", "evolve-inf", "evolve-range-inf", "evolve-angle"])
def test_cli_non_finite_times_and_maps_exit_2_or_3(tmp_path, capsys, argv, text, code, message):
    # these once ran on through numpy warnings (to exit 3), or named c0 for a nan frame time
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_cli_estimate_zeroes_modes_whose_log_factor_passes_a_float(tmp_path, capsys):
    # sigma_k t0 = (1e-20 - 1e300 k^2) 1e10 is -inf for k >= 1: the samples lose those modes,
    # and the estimator zeroes them; this once ran on through numpy's overflow and invalid
    # warnings, the last on inf + log(0) in the inverse's overflow guard
    cfg = tmp_path / "decay.cfg"
    cfg.write_text("A.0 = 1e-20\nA.2 = 1e300\nc.1 = 1\nsigma = 1\nt0 = 1e10\nK = 20\nG = 41\n"
                   "n = 2\nseed = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "zeroing unrecoverable modes", UserWarning)
        assert run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    report = (tmp_path / "estimate_report.csv").read_text().splitlines()[1].split(",")
    assert float(report[5]) == 1.0  # max_mode_error: mode 1, zeroed
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", ["t0 = pi/0\n", "t0 = 1\nsigma_grid = 1, pi/0\n"])
def test_cli_pi_over_zero_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("A.0 = 2\n" + text)
    assert run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    line = text.count("\n") + 1
    assert f"zero.cfg:{line}: bad value for" in err and "Traceback" not in err


def test_cli_sample_noiseless_rows_repeat(tmp_path):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("A.0 = 2\nA.1 = -1\nc.1 = 5\nc0 = 1\nsigma = 0\nt0 = pi/7\n"
                   "K = 4\nG = 16\nn = 3\nseed = 1\n")
    assert run_cli("sample", "--config", str(cfg), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample_id,x,value"
    body = [line.split(",", 1)[1] for line in lines[1:]]
    per_sample = 16
    assert body[:per_sample] == body[per_sample:2 * per_sample]


def test_cli_sample_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("sample", "--config", "ex42", "--out", str(out), "--seed", "5") == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


# SHA-256 of the outputs under ARTIFACT_VERSION 0.4.0, the same bytes as under
# 0.3.0 (0.4.0 moved only verify.csv); they must not move without a version bump.
PINNED_DIGESTS = {
    "grid": {
        "samples.csv": "1e5ad693d203c27254c902cc76a3e1091aec33255df74514adf3f7b17718f270",
        "estimate.csv": "49994806c8364f192eaa59ef8a2e5924f4614be6222fbc565fafe4768d21ba5c",
        "estimate_report.csv":
            "0f1d8c247110a9e367f1748881137cea78e6230cc74e4ebea95b68f7a2ea3656",
    },
    "fourier": {
        "samples.csv": "a61d04f0971622afb25b747a819801846ee169a933aebaa9f69f04578585a97e",
        "estimate.csv": "a4c68a46933f7496ba290abd772fca46b3d735cb54c699c64ea068504512629f",
        "estimate_report.csv":
            "32b76d131fe8cc0f6ab8e35cd81c0e2d11faa9fac102bb8aaadf68b80ff9225d",
    },
}


@pytest.mark.parametrize("observation", ["grid", "fourier"])
def test_cli_sample_and_estimate_bytes_match_pinned_digests(tmp_path, observation):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(preset_text("ex42") + f"observation = {observation}\n")
    assert run_cli("sample", "--config", str(cfg), "--seed", "5", "--n", "50",
                   "--out", str(tmp_path)) == 0
    assert run_cli("estimate", "--config", str(cfg), "--seed", "5",
                   "--samples", str(tmp_path / "samples.csv"), "--out", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_DIGESTS[observation]}
    assert digests == PINNED_DIGESTS[observation]


# SHA-256 of series-sampler outputs whose clock stays within [0, 1] (ex42 at t0 = 0.1,
# u = 0.49): ARTIFACT_VERSION 0.5.0 reads the path on [0, U], U = max(1, the largest
# clock), so these keep the bytes they had under 0.4.0
SERIES_DIGESTS = {
    "grid": "1ed7bd8978833fc63472af99eb92cb72ee611f4c73f0a5f1d276bb7d19258a71",
    "fourier": "61a1c04aa2a7d67a96e4300434e9568af2fbe4058f92546354263e63801c0d31",
    "evolve-path": "07033955e8080bd01bb77e0932f5074ba760b3c70636e92738e0e281a7d0bacc",
}


@pytest.mark.parametrize("case", SERIES_DIGESTS)
def test_cli_series_outputs_on_the_unit_clock_match_pinned_digests(tmp_path, case):
    cfg = tmp_path / "series.cfg"
    text = preset_text("ex42").replace("t0 = pi/7\n", "t0 = 0.1\n")
    text += "sampler = series\nseries_terms = 99\n"
    if case == "evolve-path":
        cfg.write_text(text + "series_variant = paper_faithful\n")
        argv, name = ["evolve", "--noise", "path", "--times", "0:0.1:4"], "frames.csv"
    else:
        cfg.write_text(text + f"observation = {case}\n")
        argv, name = ["sample", "--n", "20"], "samples.csv"
    assert run_cli(*argv, "--config", str(cfg), "--seed", "5", "--out", str(tmp_path)) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == SERIES_DIGESTS[case]


def test_cli_evolve_frames_match_pinned_digest(tmp_path):
    assert run_cli("evolve", "--config", "ex41", "--out", str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "frames.csv").read_bytes()).hexdigest()
    assert digest == "ab293ce54a72b4d51d97bbe3954256c98951ce84ecf25f04d142604cafb03395"


def test_cli_convergence_matches_pinned_digests(tmp_path):
    # n = 1000 spans 13 blocks of 81 rows, so the blockwise mean is pinned too
    assert run_cli("convergence", "--config", "ex42", "--n-grid", "10,100,1000", "--trials", "3",
                   "--seed", "9", "--out", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("experiment.csv", "summary.csv")}
    # summary.csv re-pinned under ARTIFACT_VERSION 0.6.0, whose closed-form slope moves the
    # last digits of its `# slope=` line; experiment.csv keeps its earlier bytes
    assert digests == {
        "experiment.csv": "e2a81bd92c907da971987b38ef856cd3ca217ceef56c7d01a7146eb4948341f6",
        "summary.csv": "b413b024ad192fe796e6c5db3093e19001eed7aa9f57f950c77565f6381e51f6",
    }


def test_cli_convergence_makes_no_lapack_call(tmp_path, monkeypatch):
    # np.polyfit's lstsq faulted about 1 MB of LAPACK into the process for one slope
    def refuse(*args, **kwargs):
        raise AssertionError("convergence called LAPACK")
    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert run_cli("convergence", "--config", "ex42", "--n-grid", "10,100,1000", "--trials", "3",
                   "--seed", "9", "--out", str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "experiment.csv").read_bytes()).hexdigest()
    assert digest == "e2a81bd92c907da971987b38ef856cd3ca217ceef56c7d01a7146eb4948341f6"


# SHA-256 under ARTIFACT_VERSION 0.4.0 of the outputs that fold streamed draws: verify's
# blocks of paired draws, and the infinite estimator's running mean at a stop and at n_max
STREAMED_DIGESTS = {
    "verify": ([], 0, {
        "verify.csv": "2a96c13b7942d448fe7bd781a3d4c87843b7fdfe3c43d15d75d579d4e152d313"}),
    "verify-quasi": (["--quasi"], 0, {
        "verify.csv": "4fb46d3c20e51733a1ca3e681c13565c0af8e7eed1233a7f6cc88d03d2a4b994"}),
    "infinite-stops": ("epsilon = 0.1\n", 0, {
        "estimate.csv": "04f02ffc8c4a37f7a3f99aef54624a48d94e45c73734cc299a2960b396a376c5",
        "estimate_report.csv":
            "53bedfdccb7185c28cf9d87b9b4289cd8abb480fc87260c1dc521fa9e0e58af2"}),
    "infinite-n-max": ("epsilon = 1e-9\nn_max = 30\n", 4, {
        "estimate.csv": "057625c4fa2fd0165427877875f3545fdd8d5aced9a30fab59e1e447527875a2",
        "estimate_report.csv":
            "07e1bfea348f93ffe663749b336e7bd1bcc0172da239e7a6dedd3692c37fd4ed"}),
}


@pytest.mark.parametrize("case", STREAMED_DIGESTS)
def test_cli_streamed_outputs_match_pinned_digests(tmp_path, case):
    extra, code, pinned = STREAMED_DIGESTS[case]
    if case.startswith("verify"):
        argv = ["verify", "--config", "ex42", "--seed", "9", "--n", "20000", *extra]
    else:  # the ex42 stream stops at n = 144 under epsilon = 0.1
        cfg = tmp_path / "stream.cfg"
        cfg.write_text(preset_text("ex42") + "estimator = infinite\n" + extra)
        argv = ["estimate", "--config", str(cfg), "--seed", "2"]
    assert run_cli(*argv, "--out", str(tmp_path)) == code
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pinned} == pinned


# the K = 2000 sweep of `wideband_config_text`, whose writers format whole columns
WIDEBAND_DIGESTS = {
    "estimate_sigma0.5.csv": "8cc54b4a48ca5e248e5205da73377ba46e8b876c9b70be161b3ee137226dae65",
    "estimate_sigma5.csv": "277e7f08ce189edba5a3d1f1eff31579cd5cf495f93fa07fadb7eca3783f27c7",
    "estimate_sigma50.csv": "8d5f83f9a4f34e5413026bc36f4f8c6087ddf54b3266bebeeaa58b03c7454b60",
    "estimate_report.csv": "9b1c0fc31dd3e1b9f874671c5be39bcaffb4ed0108ee3766a78fd3c63eef0805",
    "spectrum.csv": "17f8a7bc9356dbf1e837d779ab75c8012468638d09a61a8bff131e5d8e4b14b2",
}


def _wideband_run(tmp_path, *commands):
    cfg = tmp_path / "wideband.cfg"
    cfg.write_text(wideband_config_text())
    out = tmp_path / "run"
    for command in commands:
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 0
    return cfg, out


def test_cli_wideband_sweep_matches_pinned_digests(tmp_path):
    _, out = _wideband_run(tmp_path, "estimate", "spectrum")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in WIDEBAND_DIGESTS}
    assert digests == WIDEBAND_DIGESTS


def test_wideband_manifest_is_its_config_text_and_a_summary(tmp_path):
    cfg, out = _wideband_run(tmp_path, "estimate")
    path = out / "estimate.manifest.json"
    manifest = json.loads(path.read_text())
    text = cfg.read_text()
    assert manifest["config_text"] == text
    # JSON escapes each of the 4011 newlines with one more byte; past the text
    # itself the manifest holds at most 4 KB, whatever K is
    assert path.stat().st_size <= len(json.dumps(text)) + 4096
    scenario = manifest["scenario"]
    assert "theta" not in scenario and scenario["mode_count"] == 2000
    assert all(not isinstance(v, (dict, list)) or len(v) <= 8 for v in scenario.values())

    replayed = tmp_path / "replayed"
    assert replay_manifest(path, replayed) == 0
    for name in manifest["outputs"]:
        assert (replayed / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("observation, width", [("grid", 200), ("fourier", 41)])
def test_cli_estimate_from_file_equals_in_memory_bytes(tmp_path, observation, width):
    # three full blocks of rows and five more: the file's rows and the drawn rows fold alike
    n = str(3 * (noise._BLOCK // width) + 5)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(preset_text("ex42") + f"observation = {observation}\n")
    on_disk, in_memory = tmp_path / "file", tmp_path / "memory"
    assert run_cli("sample", "--config", str(cfg), "--seed", "5", "--n", n,
                   "--out", str(on_disk)) == 0
    assert run_cli("estimate", "--config", str(cfg), "--seed", "5",
                   "--samples", str(on_disk / "samples.csv"), "--out", str(on_disk)) == 0
    assert run_cli("estimate", "--config", str(cfg), "--seed", "5", "--n", n,
                   "--out", str(in_memory)) == 0
    for name in ("estimate.csv", "estimate_report.csv"):
        assert (on_disk / name).read_bytes() == (in_memory / name).read_bytes()


# SHA-256 under ARTIFACT_VERSION 0.6.0 of a zero signal whose constant term is -0: the
# outputs keep the sign of each zero. At t0 = 700 the factor exp(A_0 t0) goes through log
# space, where a zero constant term comes out +0
SIGNED_ZERO_SAMPLES = {
    ("5", "fourier"): "f1224eedcfa2eaca8fd58220d788319a6d35b17f7951861eb85f90f38d745159",
    ("5", "grid"): "98fcb1f4e54b6f38c925a5432bb05b2efa8152d991164505137c0441049ef44f",
    ("700", "fourier"): "10b647a4be5583f191027fb355e4355a90dc39a9368cda32a47aa79075e114fc",
    ("700", "grid"): "19f3026a2d23795a56171002103718e407d69bd38bd09060e9bd786d7b0ebf1e",
}
SIGNED_ZERO_FRAMES = {
    "5": "cbccf013aaa2f6124677ca31450eba76acc135b6dbf9d50a57fa57aa4d2e2a51",
    "700": "2e630e23c928b2c0d5a28d0a30b4f5e8e66f65a8c0239f6446e7c73d08fdeb08",
}
SIGNED_ZERO_ESTIMATE = "00f4ce24eba38684b22477fe58a4b571970bc4b5866c5e211484642996362b83"


@pytest.mark.parametrize("t0, observation", SIGNED_ZERO_SAMPLES)
def test_cli_negative_zero_constant_term_matches_pinned_digests(tmp_path, t0, observation):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"A.0 = 1\nc0 = -0\nsigma = 0\nt0 = {t0}\nK = 2\nG = 8\nseed = 1\n"
                   f"observation = {observation}\n")
    for argv in (["sample", "--n", "6"], ["estimate", "--n", "6"],
                 ["evolve", "--noise", "iid", f"--times=0:{t0}:3"]):
        assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path)) == 0
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("samples.csv", "estimate.csv", "frames.csv")}
    assert digest == {"samples.csv": SIGNED_ZERO_SAMPLES[t0, observation],
                      "estimate.csv": SIGNED_ZERO_ESTIMATE,
                      "frames.csv": SIGNED_ZERO_FRAMES[t0]}


def test_cli_sample_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("sample", "--config", "ex42", "--out", str(out1), "--seed", "5")
    run_cli("sample", "--config", "ex42", "--out", str(out2), "--seed", "6")
    assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()


def test_cli_sample_without_seed_records_entropy(tmp_path):
    assert run_cli("sample", "--config", "ex42", "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "sample.manifest.json").read_text())
    assert manifest["seed"] is not None


def test_cli_estimate_sigma_sweep_orders_errors(tmp_path):
    assert run_cli("estimate", "--config", "ex43", "--out", str(tmp_path),
                   "--seed", "9") == 0
    lines = (tmp_path / "estimate_report.csv").read_text().splitlines()
    assert lines[0].startswith("sigma,n_used,converged,sup_error")
    errors = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(errors) == 4
    assert errors == sorted(errors)
    # the sweep shares one seed, so the error is exactly linear in sigma
    assert errors[3] / errors[0] == pytest.approx(100.0, rel=1e-9)
    for sigma in (150, 1500, 7500, 15000):
        assert (tmp_path / f"estimate_sigma{sigma}.csv").exists()


def test_cli_commands_compute_the_channel_and_the_noiseless_row_once(tmp_path, monkeypatch):
    # the per-mode rates of (A, t0, K, l) are computed once per command, and the noiseless
    # row once: not once per trial, sigma, streamed row or inversion
    calls = {"rates": 0, "base rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "mode_spectrum", counted("rates", spectral.mode_spectrum))
    base_row = counted("base rows", model._noiseless)
    for module in (model, estimation, cli):
        monkeypatch.setattr(module, "_noiseless", base_row)
    cfg = tmp_path / "infinite.cfg"
    cfg.write_text(preset_text("ex42") + "estimator = infinite\nepsilon = 0.1\n")
    samples = tmp_path / "sample" / "samples.csv"
    commands = [
        (("sample", "--config", "ex42", "--n", "50", "--seed", "3"), 1),
        (("estimate", "--config", "ex42", "--n", "50", "--seed", "3"), 1),
        (("estimate", "--config", "ex42", "--samples", str(samples)), 0),
        (("estimate", "--config", "ex43", "--seed", "9"), 1),  # four sigmas
        (("estimate", "--config", str(cfg), "--seed", "1"), 1),  # 47 streamed rows
        (("convergence", "--config", "ex42", "--n-grid", "100,1000,10000", "--trials", "20",
          "--seed", "9"), 1),  # 60 trials
        (("evolve", "--config", "ex41"), 0),  # 64 frames
        (("evolve", "--config", "ex42", "--noise", "iid", "--seed", "4"), 0),
    ]
    for argv, base_rows in commands:
        spectral._spectrum.cache_clear()  # each command starts as in a fresh process
        calls.update(dict.fromkeys(calls, 0))
        assert run_cli(*argv, "--out", str(tmp_path / argv[0])) == 0
        assert calls == {"rates": 1, "base rows": base_rows}, argv


@settings(max_examples=12, deadline=None)
@given(modes=st.integers(1, 20), extra_points=st.integers(0, 9),
       form=st.sampled_from(["grid", "fourier"]), quasi=st.booleans(),
       kernel=st.sampled_from(["mean_reverting", "growth"]),
       sampler=st.sampled_from(["exact", "series"]),
       rates=st.tuples(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(-0.3, 0.3)),
       t0=st.floats(0.05, 1.0), n=st.integers(1, 6), seed=st.integers(0, 2**32),
       sigmas=st.lists(st.sampled_from(["0", "0.5", "1", "150", "1500"]), min_size=1,
                       max_size=3, unique=True))
def test_each_sweep_row_equals_its_single_sigma_run(modes, extra_points, form, quasi, kernel,
                                                    sampler, rates, t0, n, seed, sigmas):
    # the sigmas of a sweep share one channel and one noiseless row; that must not fork
    # any of them from the run that has its sigma alone
    text = (f"l = pi\nc0 = 1\nc.1 = 5\nd.{modes} = -2\nA.0 = {rates[0]!r}\n"
            f"A.1 = {rates[1]!r}\nA.2 = {rates[2]!r}\nt0 = {t0!r}\nK = {modes}\n"
            f"G = {2 * modes + 1 + extra_points}\nn = {n}\nseed = {seed}\nquasi = {int(quasi)}\n"
            f"observation = {form}\nkernel = {kernel}\nsampler = {sampler}\n"
            f"series_terms = 20\n")
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a damped mode zeroed past the cap warns
        tmp = Path(tmp)
        (tmp / "sweep.cfg").write_text(text + f"sigma_grid = {', '.join(sigmas)}\n")
        assert run_cli("estimate", "--config", str(tmp / "sweep.cfg"), "--out",
                       str(tmp / "sweep")) == 0
        sweep = (tmp / "sweep" / "estimate_report.csv").read_text().splitlines()
        for i, sigma in enumerate(sigmas):
            (tmp / "one.cfg").write_text(text + f"sigma = {sigma}\n")
            out = tmp / f"one{i}"
            assert run_cli("estimate", "--config", str(tmp / "one.cfg"), "--out", str(out)) == 0
            single = (out / "estimate_report.csv").read_text().splitlines()
            assert single[0] == sweep[0] and single[1] == sweep[1 + i]
            name = f"estimate_sigma{float(sigma):g}.csv"
            assert (out / "estimate.csv").read_bytes() == (tmp / "sweep" / name).read_bytes()


def test_cli_estimate_noiseless_recovers_input(tmp_path):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("A.0 = 2\nA.1 = -1\nc.1 = 5\nd.5 = 5\nc0 = 1\nsigma = 0\n"
                   "t0 = pi/7\nK = 20\nG = 200\nn = 2\nseed = 1\n")
    assert run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    report = (tmp_path / "estimate_report.csv").read_text().splitlines()[1].split(",")
    assert float(report[3]) < 1e-9


def test_cli_estimate_reads_samples_file(tmp_path):
    run_cli("sample", "--config", "ex42", "--out", str(tmp_path), "--seed", "4")
    code = run_cli("estimate", "--config", "ex42", "--out", str(tmp_path),
                   "--samples", str(tmp_path / "samples.csv"))
    assert code == 0
    report = (tmp_path / "estimate_report.csv").read_text().splitlines()
    assert len(report) == 2  # sweep ignored when samples come from a file
    assert float(report[1].split(",")[1]) == 4  # n_used


def test_cli_estimate_samples_whose_sum_overflows_exits_3(tmp_path, capsys):
    # two finite samples with 1e308 at the same x: their row sum overflows a float. This
    # once exited 2 as "grid values must be finite", after numpy's overflow warning
    grid = (PI * (2.0 * np.arange(8) / 8 - 1.0)).tolist()
    rows = [f"{i},{x!r},{1e308 if j == 3 else 1.0!r}" for i in (0, 1) for j, x in enumerate(grid)]
    samples = tmp_path / "samples.csv"
    samples.write_text("sample_id,x,value\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "small.cfg"
    cfg.write_text("A.0 = 2\nsigma = 1\nt0 = 0.1\nK = 2\nG = 8\nseed = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("estimate", "--config", str(cfg), "--samples", str(samples),
                       "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "numeric instability: overflow" in err and "Traceback" not in err


def test_cli_estimate_one_sample_whose_quadrature_overflows_exits_3(tmp_path, capsys):
    # one finite sample with 1e308 at each of its 8 points: the quadrature's sum overflows.
    # This once exited 2 as "c0 must be finite", after three numpy warnings
    grid = (PI * (2.0 * np.arange(8) / 8 - 1.0)).tolist()
    samples = tmp_path / "samples.csv"
    samples.write_text("sample_id,x,value\n" + "".join(f"0,{x!r},1e308\n" for x in grid))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("A.0 = 2\nsigma = 1\nt0 = 0.1\nK = 2\nG = 8\nseed = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("estimate", "--config", str(cfg), "--samples", str(samples),
                       "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "numeric instability: overflow encountered in rfft" in err and "Traceback" not in err


def test_cli_estimate_inverse_that_overflows_exits_3(tmp_path, capsys):
    # sigma_2 = 1 - 4 = -3, so inverting t0 = 5 grows mode 2 by exp(15) (kept: below 1e12),
    # which takes c_2 = 1e305 past a float. This once exited 2 as "cosine coefficients must
    # be finite", after numpy's overflow warning
    samples = tmp_path / "samples.csv"
    samples.write_text("sample_id,k,c,d\n0,0,0,0\n0,1,0,0\n0,2,1e305,0\n")
    cfg = tmp_path / "small.cfg"
    cfg.write_text("A.0 = 1\nA.2 = 1\nsigma = 1\nt0 = 5\nK = 2\nG = 8\nseed = 1\n"
                   "observation = fourier\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("estimate", "--config", str(cfg), "--samples", str(samples),
                       "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "numeric instability: the solution map over t=-5 overflows at mode 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    pytest.param("", "expected columns sample_id,x,value or sample_id,k,c,d, found <empty>",
                 id="empty-file"),
    pytest.param("id,position\n0,1\n", "expected columns", id="wrong-header"),
    pytest.param("sample_id,x,value\n0,0,1\n0,1\n", "number of columns changed",
                 id="missing-cell"),
    pytest.param("sample_id,x,value\n0,0\n1,0\n", "expected 3 columns per row",
                 id="wrong-column-count"),
    pytest.param("sample_id,x,value\n0,,1\n", "bad row", id="empty-cell"),
    pytest.param("sample_id,x,value\n", "no data rows", id="header-only-grid"),
    pytest.param("sample_id,k,c,d\n\n", "no data rows", id="header-only-coefficients"),
    pytest.param("sample_id,x,value\n1.5,0,1\n", "sample_id must be an integer",
                 id="fractional-sample-id"),
    pytest.param("sample_id,k,c,d\n0,0,1,0\n0,1.5,1,1\n", "k must be an integer",
                 id="fractional-k"),
    pytest.param("sample_id,k,c,d\n0,0,1,0\n0,-3,1,1\n", "k must be an integer >= 0",
                 id="negative-k"),
    pytest.param("sample_id,x,value\n0,0,1\n0,1,2\n1,0,3\n", "inconsistent grid sizes",
                 id="unequal-grid-sizes"),
    pytest.param("sample_id,k,c,d\n0,0,1,0\n0,21,1,1\n",
                 "k must be at most the mode count K = 20, found 21 in data row 2",
                 id="k-above-mode-count"),
    pytest.param("sample_id,k,c,d\n0,0,1,0\n0,1000000000000000,1,1\n",
                 "k must be at most the mode count K = 20, found 1e+15 in data row 2",
                 id="huge-k"),
    pytest.param("sample_id,k,c,d\n0,0,1,0\n0,1,1,1\n1,0,1,0\n1,1,1,1\n1,1,2,2\n",
                 "sample_id 1 must list every k from 0 to 1 exactly once; k = 1 is repeated",
                 id="repeated-k"),
    pytest.param("sample_id,x,value\n0,0,1\n0,-3.141592653589793,2\n",
                 "sample_id 0: x = 0 in data row 1 is more than a quarter step from grid point 0 "
                 "(x = -3.14159) of the 2-point grid of [-l, l)", id="reversed-rows"),
    pytest.param("sample_id,x,value\n0,-1.5707963267948966,1\n0,1.5707963267948966,2\n",
                 "x = -1.5708 in data row 1 is more than a quarter step", id="half-step-shift"),
    pytest.param("sample_id,x,value\n0,-3.141592653589793,1\n0,0,2\n1,0,3\n1,0,4\n",
                 "sample_id 1: x = 0 in data row 3", id="x-all-zero-in-one-sample"),
    pytest.param("sample_id,x,value\n0,-3.141592653589793,1\n0,nan,2\n",
                 "x = nan in data row 2", id="x-nan"),
])
def test_cli_estimate_missing_columns_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code = run_cli("estimate", "--config", "ex42", "--out", str(tmp_path),
                   "--samples", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "bad cell value" not in err


def test_cli_estimate_refuses_a_coefficient_file_with_missing_rows(tmp_path, capsys):
    # read as zeros, the two missing modes once gave max_mode_error 1.67 and exit 0
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(preset_text("ex42") + "observation = fourier\n")
    assert run_cli("sample", "--config", str(cfg), "--seed", "5", "--n", "3",
                   "--out", str(tmp_path)) == 0
    path = tmp_path / "samples.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if not line.startswith(("2,1,", "2,5,"))))
    assert len(path.read_text().splitlines()) == len(lines) - 2
    assert run_cli("estimate", "--config", str(cfg), "--seed", "5", "--samples", str(path),
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "sample_id 2 must list every k from 0 to 20 exactly once; k = 1 is missing" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, preset, old, new", [
    ("sample", "ex42", "sigma = 150", "sigma = 1e308"),
    ("estimate", "ex42", "sigma = 150", "sigma = 1e308"),
    ("verify", "ex42", "sigma = 150", "sigma = 1e308"),
    ("convergence", "ex42", "sigma = 150", "sigma = 1e308"),
    ("estimate", "ex43", "15000", "1e308"),  # the last sigma_grid entry
])
def test_cli_sigma_whose_variance_overflows_exits_2(tmp_path, capsys, command, preset, old, new):
    # sigma^2 overflows a float: this once ended in an OverflowError traceback
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(preset_text(preset).replace(old, new))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--seed", "1", "--out", str(out)]
    if command == "convergence":
        argv += ["--n-grid", "10,20", "--trials", "1"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "sigma = 1e+308 is too large" in err and "Traceback" not in err
    assert list(out.iterdir()) == []  # refused before anything is drawn or written


def test_cli_estimate_infinite_mode_exit_codes(tmp_path):
    never = tmp_path / "never.cfg"
    never.write_text("A.0 = 2\nA.1 = -1\nc.1 = 5\nc0 = 1\nsigma = 150\nt0 = pi/7\n"
                     "K = 20\nG = 200\nseed = 2\nestimator = infinite\n"
                     "epsilon = 0\nwindow = 2\nn_max = 20\n")
    assert run_cli("estimate", "--config", str(never), "--out", str(tmp_path / "x")) == 4
    report = (tmp_path / "x" / "estimate_report.csv").read_text().splitlines()[1]
    assert report.split(",")[2] == "0"  # converged flag

    easy = tmp_path / "easy.cfg"
    easy.write_text("A.0 = 2\nA.1 = -1\nc.1 = 5\nc0 = 1\nsigma = 0\nt0 = pi/7\n"
                    "K = 20\nG = 200\nseed = 2\nestimator = infinite\n"
                    "epsilon = 1e-6\nwindow = 2\nn_max = 20\n")
    assert run_cli("estimate", "--config", str(easy), "--out", str(tmp_path / "y")) == 0


@pytest.mark.parametrize("n_max", ["0", "-5"])
def test_cli_estimate_infinite_refuses_n_max_below_one(tmp_path, capsys, n_max):
    # this once drew one sample, printed "no convergence after 1 samples" and exited 4
    cfg = tmp_path / "stream.cfg"
    cfg.write_text(preset_text("ex42") + f"estimator = infinite\nn_max = {n_max}\n")
    out = tmp_path / "out"
    assert run_cli("estimate", "--config", str(cfg), "--seed", "1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "invalid input: n_max must be >= 1" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_cli_verify_passes(tmp_path):
    assert run_cli("verify", "--config", "ex42", "--out", str(tmp_path),
                   "--seed", "3", "--n", "20000") == 0
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[0] == "check,s,t,analytic,empirical,se,z,passed"
    assert len(lines) == 7  # variance + 5 covariance pairs
    assert all(line.endswith(",1") for line in lines[1:])


def test_cli_verify_quasi_passes(tmp_path):
    # the covariance increment comes from its own quasi stream, not a shifted copy
    assert run_cli("verify", "--config", "ex42", "--out", str(tmp_path), "--quasi",
                   "--n", "20000") == 0
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert all(abs(float(line.split(",")[6])) <= 3.0 for line in lines[1:])


def _verify_rows(out):
    return [line.split(",") for line in (out / "verify.csv").read_text().splitlines()[1:]]


@pytest.mark.parametrize("quasi", [False, True], ids=["pseudo", "quasi"])
def test_cli_verify_streamed_moments_equal_whole_array_formulas(tmp_path, quasi):
    # three full blocks and five more draws: each moment is folded over four blocks
    draws = 3 * noise._BLOCK + 5
    flags = ["--quasi"] if quasi else ["--seed", "9"]
    assert run_cli("verify", "--config", "ex42", "--n", str(draws), "--out", str(tmp_path),
                   *flags) in (0, 3)
    rows = _verify_rows(tmp_path)
    sc = replace(load_config("ex42").scenario, quasi=quasi, seed=9)
    values = (math.sqrt(noise_variance(sc.noise, sc.t0))
              * model.sample_source(sc, (0, 0)).normals(draws))
    expected = [values.var(ddof=1)]
    for i, row in enumerate(rows[1:]):
        rng = model.sample_source(sc, (1, i), quasi_shift=2 * i)
        early, late = ou_joint_pairs(sc.noise, float(row[1]), float(row[2]), draws, rng)
        expected.append(np.cov(early, late)[0, 1])
    assert [float(row[4]) for row in rows] == pytest.approx(expected, rel=1e-12, abs=0.0)
    for row in rows:  # a numpy bool would print True / False
        assert row[7] == ("1" if abs(float(row[6])) <= 3.0 else "0")


@pytest.mark.parametrize("flags", [["--seed", "9", "--n", "1000000"], ["--quasi", "--n", "200000"]],
                         ids=["pseudo", "quasi"])
def test_cli_verify_memory_does_not_grow_with_n(tmp_path, flags):
    # whole rows held 61.3 MB (pseudo, 1e6 draws) and 40.7 MB (quasi, 2e5 draws)
    tracemalloc.start()
    try:
        code = run_cli("verify", "--config", "ex42", "--out", str(tmp_path), *flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 3)
    assert peak < 4e6


def test_cli_estimate_infinite_zeroes_modes_and_reports_amplification(tmp_path):
    cfg = tmp_path / "heat.cfg"
    cfg.write_text("A.0 = 1\nA.2 = 1\nc.15 = 1\nt0 = 0.2\nsigma = 1\nn = 10\nseed = 1\n"
                   "estimator = infinite\nepsilon = 1e-1\n")
    with pytest.warns(UserWarning, match="unrecoverable"):
        assert run_cli("estimate", "--config", str(cfg), "--out", str(tmp_path)) == 0
    report = (tmp_path / "estimate_report.csv").read_text().splitlines()[1].split(",")
    assert 1.0 < float(report[6]) <= 1e12  # amplification_max, no longer NaN


@pytest.mark.parametrize("argv, message", [
    (["verify", "--config", "ex42", "--n", "1"], "--n must be >= 2"),
    (["estimate", "--config", "ex42", "--samples", "{tmp}/missing.csv"], "missing.csv"),
    (["spectrum", "--config", "ex42", "--out", "{tmp}/afile/sub"], "afile/sub"),
    (["sample", "--config", "ex42", "--seed", "-4"], "--seed must be an integer >= 0"),
])
def test_cli_input_errors_exit_2(tmp_path, capsys, argv, message):
    (tmp_path / "afile").write_text("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_estimate_refuses_n_with_a_samples_file(tmp_path, capsys):
    # the file sets the sample count: --n was once ignored, n_used = 10 beside a manifest n = 3
    assert run_cli("sample", "--config", "ex42", "--seed", "4", "--n", "10",
                   "--out", str(tmp_path)) == 0
    out = tmp_path / "out"
    assert run_cli("estimate", "--config", "ex42", "--samples", str(tmp_path / "samples.csv"),
                   "--n", "3", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--n cannot resize a --samples file" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_cli_estimate_infinite_refuses_a_samples_file(tmp_path, capsys):
    # the file was once ignored: exit 0 on a freshly drawn stream, the file named in the manifest
    assert run_cli("sample", "--config", "ex42", "--seed", "4", "--out", str(tmp_path)) == 0
    cfg = tmp_path / "stream.cfg"
    cfg.write_text(preset_text("ex42") + "estimator = infinite\nepsilon = 5\n")
    out = tmp_path / "out"
    assert run_cli("estimate", "--config", str(cfg), "--samples", str(tmp_path / "samples.csv"),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--samples cannot feed estimator = infinite" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, sizes", [
    pytest.param("spectrum", "K = 1000000000000000\nG = 2000000000000001\n", id="spectrum-K"),
    pytest.param("sample", "G = 2000000000000001\n", id="sample-G"),
])
def test_cli_unallocatable_sizes_exit_2(tmp_path, capsys, command, sizes):
    # arrays of 7 and 14 PiB: these once ended in an _ArrayMemoryError traceback and
    # exit 1, then in numpy's "Unable to allocate"; the row budget now refuses the first
    # size key, on its line, before numpy is asked for anything
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("A.0 = 1\nc0 = 1\nsigma = 1\nt0 = 1\nn = 1\nseed = 1\n" + sizes)
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    key = sizes.split(" =")[0]
    assert f"config error: {cfg}:7: {key} = " in err and "a row may hold at most 131072" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sizes, key", [
    ("K = 10000000\n", "K"),  # with the default G = 200
    ("K = 100000000\nG = 200000001\n", "K"),
    ("K = 65536\nG = 131073\n", "K"),
    ("G = 131073\n", "G"),
    ("G = 1000000000\n", "G"),
    ("series_terms = 131072\n", "series_terms"),
    ("series_terms = 1000000000\n", "series_terms"),
    ("K = 5000\n", "K"),  # inside the budget, but the default G = 200 cannot resolve it
    ("K = 5000\nG = 10000\n", "G"),
    ("K = -3\n", "K"),  # once "coefficient index 0 exceeds mode_count -3", with no line
    ("K = 0\n", "K"),
    ("series_terms = 0\n", "series_terms"),
])
def test_sizes_past_the_row_budget_are_refused_before_allocating(sizes, key):
    # every row a size key sets (2K + 1 coefficients, G values, series_terms + 1 Gaussians)
    # fits in 1 MiB, K and series_terms are >= 1, and G >= 2K + 1, all checked before
    # theta or any other array is built
    text = "A.0 = 1\nc0 = 1\nc.3 = 1\nsigma = 1\nt0 = 1\n" + sizes
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as refused:
            parse_config_text(text, source="big.cfg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    line = 6 + [k.split(" =")[0] for k in sizes.splitlines()].index(key)
    assert str(refused.value).startswith(f"big.cfg:{line}: ") and f"{key} = " in str(refused.value)


def test_sizes_at_the_row_budget_are_accepted():
    # the limits themselves, and the presets and wideband far inside them
    run = parse_config_text("A.0 = 1\nt0 = 1\nK = 65535\nG = 131072\nseries_terms = 131071\n")
    assert (run.scenario.mode_count, run.scenario.grid_points) == (65535, 131072)
    assert run.scenario.noise.series_terms == 131071
    wideband = parse_config_text(wideband_config_text()).scenario
    for scenario in [load_config(name).scenario for name in PRESETS] + [wideband]:
        rows = (2 * scenario.mode_count + 1, scenario.grid_points,
                scenario.noise.series_terms + 1)
        assert 8 * max(rows) <= (1 << 20) // 16


_FLOAT_TOKENS = ["0", "-0", "1", "-1", "0.5", "150", "5e-324", "1e-300", "1e308", "-1e308",
                 "nan", "inf", "-inf", "pi", "-pi", "pi/7", "pi/0"]
_NOT_INTEGERS = ["nan", "inf", "1e308", "pi/0", "2.5"]
# integer keys stay small (K <= 64, G <= 512, n <= 20), so no example allocates more than a few MB
_INT_TOKENS = {"K": ["0", "1", "5", "20", "64"], "G": ["1", "11", "200", "512"],
               "n": ["-1", "0", "1", "20"], "series_terms": ["0", "5", "64"],
               "n_max": ["-5", "0", "1", "20"], "window": ["1", "2", "5"],
               "quasi_base": ["0", "1", "64"], "quasi": ["0", "1"], "seed": ["-1", "0", "7"]}
_ENUM_TOKENS = {"kernel": ["mean_reverting", "growth"], "observation": ["grid", "fourier"],
                "sampler": ["exact", "series"],
                "series_variant": ["variance_matched", "paper_faithful"],
                "estimator": ["mean", "infinite", "other"]}
_GRAMMAR_KEYS = ["l", "c0", "sigma", "t0", "epsilon", "c.0", "c.1", "c.20", "c.65", "d.5",
                 "A.0", "A.1", "A.2", "A.3", "A.7", "sigma_grid", "unknown",
                 *_INT_TOKENS, *_ENUM_TOKENS]


def _value(key: str):
    if key in _INT_TOKENS:
        return st.sampled_from(_INT_TOKENS[key] + _NOT_INTEGERS)
    if key in _ENUM_TOKENS:
        return st.sampled_from(_ENUM_TOKENS[key])
    if key == "sigma_grid":
        return st.lists(st.sampled_from(_FLOAT_TOKENS), min_size=1, max_size=3).map(", ".join)
    return st.sampled_from(_FLOAT_TOKENS)


@st.composite
def _mutated_preset(draw) -> str:
    """A preset's text with lines dropped, repeated, added from the grammar or given new values."""
    lines = preset_text(draw(st.sampled_from(PRESETS))).splitlines()
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["drop", "repeat", "add", "set", "set"]))
        if edit == "add":
            key = draw(st.sampled_from(_GRAMMAR_KEYS))
            lines.insert(at, f"{key} = {draw(_value(key))}")
        elif not lines:
            continue
        elif edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif "=" in lines[at]:
            key = lines[at].partition("=")[0].strip()
            lines[at] = f"{key} = {draw(_value(key))}"
    if not any(line.startswith("n_max") for line in lines):
        lines.append("n_max = 20")  # the default of 10000 steps would take seconds per example
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_mutated_preset())
def test_cli_mutated_presets_end_in_a_documented_exit_code(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("mutated")
    cfg = tmp / "mutated.cfg"
    cfg.write_text(text)
    for argv in (["spectrum"], ["evolve"], ["sample"], ["estimate"], ["verify", "--n", "200"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(*argv, "--config", str(cfg), "--seed", "1", "--out", str(tmp / "out"))
        assert code in (0, 2, 3, 4), (argv, text)


_BAD_CELLS = ["nan", "inf", "1e308", "abc", "", "1,2"]  # the last adds a column


@st.composite
def _mutated_samples(draw) -> tuple[str, str]:
    """(config text, samples file text): a small batch as `sample` writes it (n <= 5, G <= 16,
    K <= 4), with rows dropped, repeated or swapped, cells replaced, or the header changed."""
    observation = draw(st.sampled_from(["grid", "fourier"]))
    k = draw(st.integers(1, 4))
    config = (f"A.0 = 1\nA.2 = 0.5\nc0 = 1\nc.1 = 2\nsigma = 1\nt0 = 0.2\nK = {k}\n"
              f"G = {draw(st.integers(2 * k + 1, 16))}\nn = {draw(st.integers(1, 5))}\n"
              f"observation = {observation}\nseed = 1\n")
    tmp = Path(tempfile.mkdtemp())
    (tmp / "drawn.cfg").write_text(config)
    assert run_cli("sample", "--config", str(tmp / "drawn.cfg"), "--out", str(tmp)) == 0
    lines = (tmp / "samples.csv").read_text().splitlines()
    shutil.rmtree(tmp)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(1, max(len(lines) - 1, 1)))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "cell", "cell", "header"]))
        if edit == "header":
            lines[0] = draw(st.sampled_from(["sample_id,x,value", "sample_id,k,c,d",
                                             "sample_id,x", "id,x,value", ""]))
        elif at >= len(lines):
            continue
        elif edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "swap":
            other = draw(st.integers(1, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            cells = lines[at].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_BAD_CELLS))
            lines[at] = ",".join(cells)
    return config, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(case=_mutated_samples())
def test_cli_mutated_samples_files_end_in_a_documented_exit_code(tmp_path_factory, case):
    config, samples = case
    tmp = tmp_path_factory.mktemp("samples")
    (tmp / "scenario.cfg").write_text(config)
    (tmp / "samples.csv").write_text(samples)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = run_cli("estimate", "--config", str(tmp / "scenario.cfg"), "--samples",
                       str(tmp / "samples.csv"), "--out", str(tmp / "out"))
    assert code in (0, 2, 3, 4), (config, samples)
    assert "Traceback" not in err.getvalue()


def test_cli_verify_zero_noise_trivially_passes(tmp_path):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("A.0 = 2\nsigma = 0\nt0 = 1\nK = 2\nG = 8\nseed = 1\n")
    assert run_cli("verify", "--config", str(cfg), "--out", str(tmp_path),
                   "--n", "100") == 0
    for row in _verify_rows(tmp_path):
        assert (float(row[4]), float(row[6]), row[7]) == (0.0, 0.0, "1")  # empirical, z, passed


def test_cli_convergence_single_trial_rows(tmp_path):
    assert run_cli("convergence", "--config", "ex42", "--out", str(tmp_path),
                   "--seed", "8", "--n-grid", "10,20", "--trials", "1") == 0
    experiment = (tmp_path / "experiment.csv").read_text().splitlines()
    assert experiment[0] == "n,trial,sup_error,c0_error,max_mode_error"
    assert len(experiment) == 3
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "n,mean_error,sd_error"
    assert summary[-1].startswith("# slope=")


def test_cli_convergence_unsorted_grid_exits_2(tmp_path):
    assert run_cli("convergence", "--config", "ex42", "--out", str(tmp_path),
                   "--n-grid", "100,10", "--trials", "1") == 2


def test_cli_quasi_flag_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("sample", "--config", "ex42", "--out", str(out), "--quasi") == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    manifest = json.loads((out1 / "sample.manifest.json").read_text())
    assert manifest["args"]["quasi"] is True


# ---------------------------------------------------------------------------
# manifests


def test_manifest_replay_is_byte_identical(tmp_path):
    first = tmp_path / "run"
    assert run_cli("sample", "--config", "ex42", "--out", str(first), "--seed", "21") == 0
    manifest_path = first / "sample.manifest.json"
    manifest = RunManifest.load(manifest_path)
    assert manifest.command == "sample"
    assert manifest.outputs == ["samples.csv"]

    replayed = tmp_path / "replayed"
    assert replay_manifest(manifest_path, replayed) == 0
    assert (first / "samples.csv").read_bytes() == (replayed / "samples.csv").read_bytes()


def test_manifest_replay_refuses_older_artifact_version(tmp_path, capsys):
    first = tmp_path / "run"
    assert run_cli("sample", "--config", "ex42", "--out", str(first), "--seed", "21") == 0
    manifest_path = first / "sample.manifest.json"
    data = json.loads(manifest_path.read_text())
    for version in ("0.1.0", "0.2.0", "0.3.0"):
        data["artifact_version"] = version
        manifest_path.write_text(json.dumps(data))
        replayed = tmp_path / f"replayed-{version}"
        assert replay_manifest(manifest_path, replayed) == 2
        assert version in capsys.readouterr().err
        assert not replayed.exists()  # refused before writing anything


def test_manifest_replay_convergence(tmp_path):
    first = tmp_path / "run"
    assert run_cli("convergence", "--config", "ex42", "--out", str(first),
                   "--seed", "2", "--n-grid", "5,10", "--trials", "2") == 0
    replayed = tmp_path / "replayed"
    assert replay_manifest(first / "convergence.manifest.json", replayed) == 0
    for name in ("experiment.csv", "summary.csv"):
        assert (first / name).read_bytes() == (replayed / name).read_bytes()


NEVER_CONVERGES = ("A.0 = 2\nA.1 = -1\nc.1 = 5\nc0 = 1\nsigma = 150\nt0 = pi/7\n"
                   "K = 20\nG = 200\nseed = 2\nestimator = infinite\n"
                   "epsilon = 0\nwindow = 2\nn_max = 20\n")


@pytest.mark.parametrize("command, flags, code", [
    ("spectrum", [], 0),
    ("evolve", ["--noise", "iid", "--seed", "5", "--times=-0:pi/14:3"], 0),  # a value led by "-"
    ("sample", ["--quasi"], 0),
    ("estimate", ["--samples", "SAMPLES"], 0),
    ("estimate", ["--config", "NEVER"], 4),
    ("verify", ["--n", "2000", "--seed", "5"], 0),
    ("convergence", ["--n-grid", "10,20", "--trials", "2", "--seed", "5"], 0),
], ids=["spectrum", "evolve-iid", "sample-quasi", "estimate-samples", "estimate-infinite",
        "verify", "convergence"])
def test_manifest_replay_of_every_command(tmp_path, command, flags, code):
    samples = tmp_path / "given" / "samples.csv"
    assert run_cli("sample", "--config", "ex42", "--seed", "4", "--out", str(samples.parent)) == 0
    never = tmp_path / "never.cfg"
    never.write_text(NEVER_CONVERGES)
    flags = [{"SAMPLES": str(samples), "NEVER": str(never)}.get(f, f) for f in flags]
    if "--config" not in flags:
        flags = ["--config", "ex42", *flags]
    first = tmp_path / "run"
    assert run_cli(command, "--out", str(first), *flags) == code
    manifest_path = first / f"{command}.manifest.json"
    outputs = RunManifest.load(manifest_path).outputs
    assert outputs

    replayed = tmp_path / "replayed"
    assert replay_manifest(manifest_path, replayed) == code
    for name in outputs:
        assert (replayed / name).read_bytes() == (first / name).read_bytes(), name


def test_every_recorded_flag_is_spelled_from_its_dest():
    # replay_manifest rebuilds argv from the manifest's args by this rule alone
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "config", "out"):
                continue
            assert action.option_strings == ["--" + action.dest.replace("_", "-")], name


def test_manifest_records_effective_arguments(tmp_path):
    assert run_cli("sample", "--config", "ex42", "--out", str(tmp_path),
                   "--seed", "33", "--n", "2") == 0
    manifest = json.loads((tmp_path / "sample.manifest.json").read_text())
    assert manifest["seed"] == 33
    assert manifest["args"]["n"] == 2
    assert manifest["config_text"].strip() == preset_text("ex42").strip()
    assert manifest["duration_seconds"] >= 0
