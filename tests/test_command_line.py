"""The command line's shape: each parser's actions and help text, pinned, and README's table."""

import argparse
import re
from pathlib import Path

import pytest

from ousignal.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

# (option strings, dest, default, type, choices, required, help) of each action, in order
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False,
         "show this help message and exit")
_COMMON = [
    _HELP,
    (("--config",), "config", None, None, None, True,
     "config file path or preset name (ex41, ex42, ex43)"),
    (("--out",), "out", ".", None, None, False, "output directory"),
    (("--seed",), "seed", None, "int", None, False, "pseudo-random seed override"),
    (("--quasi",), "quasi", False, None, None, False,
     "drive sampling with the deterministic quasi-random sequence"),
]
_N = (("--n",), "n", None, "int", None, False, "sample count override")
ACTIONS = {
    "": [_HELP, ((), "command", None, None,
                 ("spectrum", "evolve", "sample", "estimate", "verify", "convergence"), True,
                 None)],
    "spectrum": _COMMON,
    "evolve": _COMMON + [
        (("--times",), "times", None, None, None, False,
         "start:stop:count or comma list (pi tokens allowed)"),
        (("--noise",), "noise", "none", None, ("none", "path", "iid"), False, None),
    ],
    "sample": _COMMON + [_N],
    "estimate": _COMMON + [
        _N,
        (("--samples",), "samples", None, None, None, False,
         "existing samples CSV to estimate from"),
    ],
    "verify": _COMMON + [
        (("--n",), "n", None, "int", None, False, "number of draws (default 100000)"),
    ],
    "convergence": _COMMON + [
        (("--n-grid",), "n_grid", "100,1000,10000", None, None, False,
         "comma list of sample sizes, ascending"),
        (("--trials",), "trials", 50, "int", None, False, None),
    ],
}

_OPTIONS = """
options:
  -h, --help       show this help message and exit
  --config CONFIG  config file path or preset name (ex41, ex42, ex43)
  --out OUT        output directory
  --seed SEED      pseudo-random seed override
  --quasi          drive sampling with the deterministic quasi-random sequence
"""
# each parser's --help at 80 columns
HELP_TEXTS = {
    "": """\
usage: ousignal [-h] {spectrum,evolve,sample,estimate,verify,convergence} ...

Simulate a stochastically perturbed spectral transmission channel and recover
the transmitted signal.

positional arguments:
  {spectrum,evolve,sample,estimate,verify,convergence}
    spectrum            emit per-mode rates sigma_k, omega_k
    evolve              emit frames of the evolving signal
    sample              draw observed transformed signals
    estimate            recover the input signal from samples
    verify              Monte Carlo check of the analytic noise moments
    convergence         error decay study over sample sizes

options:
  -h, --help            show this help message and exit
""",
    "spectrum": """\
usage: ousignal spectrum [-h] --config CONFIG [--out OUT] [--seed SEED]
                         [--quasi]
""" + _OPTIONS,
    "evolve": """\
usage: ousignal evolve [-h] --config CONFIG [--out OUT] [--seed SEED]
                       [--quasi] [--times TIMES] [--noise {none,path,iid}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config file path or preset name (ex41, ex42, ex43)
  --out OUT             output directory
  --seed SEED           pseudo-random seed override
  --quasi               drive sampling with the deterministic quasi-random
                        sequence
  --times TIMES         start:stop:count or comma list (pi tokens allowed)
  --noise {none,path,iid}
""",
    "sample": """\
usage: ousignal sample [-h] --config CONFIG [--out OUT] [--seed SEED]
                       [--quasi] [--n N]
""" + _OPTIONS + """\
  --n N            sample count override
""",
    "estimate": """\
usage: ousignal estimate [-h] --config CONFIG [--out OUT] [--seed SEED]
                         [--quasi] [--n N] [--samples SAMPLES]

options:
  -h, --help         show this help message and exit
  --config CONFIG    config file path or preset name (ex41, ex42, ex43)
  --out OUT          output directory
  --seed SEED        pseudo-random seed override
  --quasi            drive sampling with the deterministic quasi-random
                     sequence
  --n N              sample count override
  --samples SAMPLES  existing samples CSV to estimate from
""",
    "verify": """\
usage: ousignal verify [-h] --config CONFIG [--out OUT] [--seed SEED]
                       [--quasi] [--n N]
""" + _OPTIONS + """\
  --n N            number of draws (default 100000)
""",
    "convergence": """\
usage: ousignal convergence [-h] --config CONFIG [--out OUT] [--seed SEED]
                            [--quasi] [--n-grid N_GRID] [--trials TRIALS]
""" + _OPTIONS + """\
  --n-grid N_GRID  comma list of sample sizes, ascending
  --trials TRIALS
""",
}


def _parsers() -> dict:
    """The top-level parser under "" and each command's parser under its name, in order."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": parser, **commands.choices}


def _actions(parser) -> list:
    return [(tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", a.type),
             None if a.choices is None else tuple(a.choices), a.required, a.help)
            for a in parser._actions]


def test_every_parser_has_its_pinned_actions():
    assert {name: _actions(p) for name, p in _parsers().items()} == ACTIONS
    assert list(_parsers()) == list(ACTIONS)


@pytest.mark.parametrize("name", list(HELP_TEXTS))
def test_every_help_text_matches_its_pinned_literal(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parsers()[name].format_help() == HELP_TEXTS[name]


def _readme_command_rows() -> dict:
    """README's "Command line" table: each command's name and its extra-flags cell."""
    section = README.read_text().split("## Command line\n", 1)[1]
    table = section.split("\n| command ", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        match = re.match(r"\| `(\w+)` +\| .*? \|(.*)\|$", line)
        if match:
            rows[match[1]] = match[2]
    return rows


def test_readme_command_table_names_each_command_and_its_extra_flags():
    common = {"--help", "--config", "--out", "--seed", "--quasi"}
    parsers = _parsers()
    del parsers[""]
    rows = _readme_command_rows()
    assert list(rows) == list(parsers)
    for name, parser in parsers.items():
        extra = [flag for a in parser._actions for flag in a.option_strings
                 if flag.startswith("--") and flag not in common]
        assert re.findall(r"`(--[a-z-]+)", rows[name]) == extra, name
