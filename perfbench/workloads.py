"""The four benchmark workloads: inputs made from a seed, commands, and checks.

Each workload is a fixed list of `ousignal` commands run one after another,
each in a fresh process. `plan(name, seed, inputs_dir)` writes the workload's
config files and returns the commands; the same seed always gives the same
files and the same arguments. `check(...)` reads one iteration's outputs and
returns the number of samples they account for plus any correctness
problems found. The checks are structural (they hold for every seed), so a
change to the random streams cannot trip them by chance.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

EXIT_NUMERIC = 3

# Correctness tolerances. The noise perturbs only the
# constant Fourier mode, so every other mode of an estimate must match the
# input to quadrature roundoff ...
MODE_TOL = 1e-9
# ... and the sup error must be |c0_error| / 2, up to the K non-constant modes
# (each moves the sup by at most max_mode_error) and the roundoff of
# evaluating both signals on the probe grid.
SUP_ABS_TOL = 1e-9
# verify's `analytic` column against the closed-form moments.
ANALYTIC_REL_TOL = 1e-12


@dataclass
class Command:
    """One `ousignal` invocation; `out` is its output directory name."""

    label: str
    args: list[str]
    out: str
    samples_in: str | None = None   # output dir of an earlier command it reads from
    ok_codes: tuple[int, ...] = (0,)


@dataclass
class Plan:
    """A workload's commands for one seed; `facts` holds the inputs the checks need."""

    name: str
    commands: list[Command]
    references: list[Command] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def setup_configs(self) -> list[str]:
        """Configs whose load counts as set-up: the first command's config."""
        return [self.commands[0].args[self.commands[0].args.index("--config") + 1]]


def _signal_lines(rng: random.Random, mode_count: int, live: int) -> list[str]:
    """A random input signal with `live` nonzero modes among 1..mode_count."""
    lines = [f"c0 = {rng.uniform(-2.0, 2.0)!r}"]
    for k in sorted(rng.sample(range(1, mode_count + 1), live)):
        lines.append(f"c.{k} = {rng.uniform(-5.0, 5.0)!r}")
        lines.append(f"d.{k} = {rng.uniform(-5.0, 5.0)!r}")
    return lines


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def plan(name: str, seed: int, inputs: Path) -> Plan:
    if name not in _PLANNERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench/{name}/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    return _PLANNERS[name](rng, inputs)


def _plan_montecarlo(rng, inputs) -> Plan:
    s = str(rng.getrandbits(31))
    commands = [
        Command("verify", ["verify", "--config", "ex42", "--n", "100000", "--seed", s], "verify",
                ok_codes=(0, EXIT_NUMERIC)),
        Command("convergence", ["convergence", "--config", "ex42", "--n-grid",
                                "100,1000,10000", "--trials", "20", "--seed", s], "convergence"),
    ]
    # ex42: sigma = 150, A.0 = 2, t0 = pi/7, K = 20 (the bundled preset).
    facts = {"sigma": 150.0, "a0": 2.0, "t0": math.pi / 7, "mode_count": 20,
             "n_grid": [100, 1000, 10000], "trials": 20, "draws": 100000}
    return Plan("montecarlo", commands, facts=facts)


def _base_lines(rng) -> list[str]:
    return ["l = pi", *_signal_lines(rng, 20, 3), "A.0 = 2", "A.1 = -1", "A.2 = 0"]


def _plan_csv_roundtrip(rng, inputs) -> Plan:
    s = str(rng.getrandbits(31))
    n = "2000"
    coef = _write(inputs / "coef.cfg", [*_base_lines(rng), "sigma = 150", "t0 = pi/7",
                                        "K = 20", "G = 200", "observation = fourier"])
    commands = [
        Command("sample-grid", ["sample", "--config", "ex42", "--n", n, "--seed", s], "grid-sample"),
        Command("estimate-grid", ["estimate", "--config", "ex42", "--seed", s, "--samples"],
                "grid-estimate", samples_in="grid-sample"),
        Command("sample-coef", ["sample", "--config", str(coef), "--n", n, "--seed", s],
                "coef-sample"),
        Command("estimate-coef", ["estimate", "--config", str(coef), "--seed", s, "--samples"],
                "coef-estimate", samples_in="coef-sample"),
    ]
    # The same estimates computed in memory, without the CSV round trip.
    references = [
        Command("memory-grid", ["estimate", "--config", "ex42", "--n", n, "--seed", s],
                "grid-estimate"),
        Command("memory-coef", ["estimate", "--config", str(coef), "--n", n, "--seed", s],
                "coef-estimate"),
    ]
    facts = {"n": int(n), "grid_points": 200, "mode_count": 20}
    return Plan("csv-roundtrip", commands, references, facts)


def _plan_wideband(rng, inputs) -> Plan:
    k_count, g_count = 2000, 4001
    t0 = rng.uniform(0.2, 0.5)
    lines = ["l = pi", f"c0 = {rng.uniform(-1.0, 1.0)!r}"]
    for k in range(1, k_count + 1):
        lines.append(f"c.{k} = {rng.gauss(0.0, 1.0) / k!r}")
        lines.append(f"d.{k} = {rng.gauss(0.0, 1.0) / k!r}")
    # Odd-order (dispersive) term only: every mode keeps rate A.0, so no mode is
    # zeroed by the estimator or overflows forward.
    lines += ["A.0 = 1", f"A.3 = {rng.uniform(1e-7, 1e-6)!r}", "sigma = 1",
              "sigma_grid = 0.5, 5, 50", f"t0 = {t0!r}", f"K = {k_count}",
              f"G = {g_count}", "n = 8"]
    wide = _write(inputs / "wideband.cfg", lines)
    s = str(rng.getrandbits(31))
    frames = 6
    commands = [
        Command("estimate-sweep", ["estimate", "--config", str(wide), "--seed", s], "estimate"),
        Command("evolve", ["evolve", "--config", str(wide), "--times", f"0:{t0!r}:{frames}"],
                "evolve"),
    ]
    facts = {"sigma_grid": [0.5, 5.0, 50.0], "n": 8, "mode_count": k_count,
             "grid_points": g_count, "frames": frames}
    return Plan("wideband", commands, facts=facts)


def _plan_stream_quasi(rng, inputs) -> Plan:
    # a0 * t0 = 0.34 <= ln(2)/2, so the series sampler's domain u <= 1 holds.
    # A wide Cauchy window makes the stopping point steady across quasi bases
    # (about 3.5k to 4.2k samples).
    base = rng.randint(1, 20000)
    stream = _write(inputs / "stream.cfg", [
        *_base_lines(rng), "sigma = 1", "t0 = 0.17", "K = 20", "G = 200",
        "quasi = 1", f"quasi_base = {base}", "sampler = series", "series_terms = 199",
        "estimator = infinite", "epsilon = 2e-4", "window = 400", "n_max = 20000"])
    commands = [Command("estimate-stream", ["estimate", "--config", str(stream)], "estimate")]
    facts = {"quasi_base": base, "mode_count": 20}
    return Plan("stream-quasi", commands, facts=facts)


_PLANNERS = {
    "montecarlo": _plan_montecarlo,
    "csv-roundtrip": _plan_csv_roundtrip,
    "wideband": _plan_wideband,
    "stream-quasi": _plan_stream_quasi,
}
WORKLOADS = tuple(_PLANNERS)


# ---------------------------------------------------------------------------
# checks


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _error_problems(where: str, rows, mode_count: int) -> list[str]:
    """max_mode_error <= MODE_TOL and sup_error == |c0_error|/2 on every row."""
    problems = []
    for i, r in enumerate(rows):
        sup, c0, mode = (float(r["sup_error"]), float(r["c0_error"]),
                         float(r["max_mode_error"]))
        if not mode <= MODE_TOL:
            problems.append(f"{where} row {i}: max_mode_error {mode:.3g} > {MODE_TOL:g}")
        if not abs(sup - abs(c0) / 2.0) <= mode_count * mode + SUP_ABS_TOL:
            problems.append(f"{where} row {i}: sup_error {sup!r} != |c0_error|/2 {abs(c0) / 2!r}")
    return problems


def noise_variance(sigma: float, a0: float, t: float) -> float:
    """Closed-form variance of the mean-reverting channel noise at time t."""
    return sigma**2 / (2.0 * a0) * -math.expm1(-2.0 * a0 * t)


def noise_covariance(sigma: float, a0: float, s: float, t: float) -> float:
    """Closed-form covariance of the mean-reverting channel noise, s <= t."""
    s, t = min(s, t), max(s, t)
    return sigma**2 / (2.0 * a0) * (math.exp(-a0 * (t - s)) - math.exp(-a0 * (t + s)))


@dataclass
class CheckResult:
    samples: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def check(p: Plan, it_dir: Path, codes: dict[str, int], ref_dir: Path | None) -> CheckResult:
    """Check one iteration's outputs; `codes` maps command label to exit code."""
    result = CheckResult()
    try:
        _CHECKERS[p.name](p, it_dir, codes, ref_dir, result)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result


def _check_montecarlo(p, it_dir, codes, ref_dir, result):
    f = p.facts
    rows = _rows(it_dir / "verify" / "verify.csv")
    if len(rows) != 6 or [r["check"] for r in rows] != ["variance"] + ["covariance"] * 5:
        result.problems.append(f"verify.csv: expected 1 variance and 5 covariance rows, "
                               f"got {[r['check'] for r in rows]}")
    stat_fail = []
    for i, r in enumerate(rows):
        s, t, analytic = float(r["s"]), float(r["t"]), float(r["analytic"])
        if r["check"] == "variance":
            expected = noise_variance(f["sigma"], f["a0"], t)
        else:
            expected = noise_covariance(f["sigma"], f["a0"], s, t)
        if not abs(analytic - expected) <= ANALYTIC_REL_TOL * abs(expected):
            result.problems.append(f"verify.csv row {i}: analytic {analytic!r} != {expected!r}")
        z = float(r["z"])
        if (r["passed"] == "1") != (abs(z) <= 3.0):
            result.problems.append(f"verify.csv row {i}: passed={r['passed']} with z={z!r}")
        if abs(z) > 3.0:
            stat_fail.append(f"{r['check']}(s={s:.4g},t={t:.4g}) z={z:.3f}")
    expected_code = EXIT_NUMERIC if stat_fail else 0
    if codes.get("verify") != expected_code:
        result.problems.append(f"verify exited {codes.get('verify')}, expected {expected_code}")
    if stat_fail:
        # One 3-SE check in six: a statistical outcome, recorded, not a failure.
        result.notes.append("verify statistical outcome (exit 3): " + "; ".join(stat_fail))
    manifest = json.loads((it_dir / "verify" / "verify.manifest.json").read_text())
    result.samples += int(manifest["extra"]["draws"]) * len(rows)

    exp = _rows(it_dir / "convergence" / "experiment.csv")
    expected_rows = len(f["n_grid"]) * f["trials"]
    if len(exp) != expected_rows:
        result.problems.append(f"experiment.csv: {len(exp)} rows, expected {expected_rows}")
    result.problems += _error_problems("experiment.csv", exp, f["mode_count"])
    result.samples += sum(int(r["n"]) for r in exp)
    summary = (it_dir / "convergence" / "summary.csv").read_text().splitlines()
    if len(summary) != 2 + len(f["n_grid"]) or not summary[-1].startswith("# slope="):
        result.problems.append("summary.csv: unexpected layout")


def _check_csv_roundtrip(p, it_dir, codes, ref_dir, result):
    f = p.facts
    grid_lines = _count_lines(it_dir / "grid-sample" / "samples.csv")
    if grid_lines != 1 + f["n"] * f["grid_points"]:
        result.problems.append(f"grid samples.csv: {grid_lines} lines")
    coef_lines = _count_lines(it_dir / "coef-sample" / "samples.csv")
    if coef_lines != 1 + f["n"] * (f["mode_count"] + 1):
        result.problems.append(f"coefficient samples.csv: {coef_lines} lines")
    for out in ("grid-estimate", "coef-estimate"):
        rows = _rows(it_dir / out / "estimate_report.csv")
        if len(rows) != 1 or int(rows[0]["n_used"]) != f["n"]:
            result.problems.append(f"{out}: expected one report row with n_used={f['n']}")
        result.problems += _error_problems(f"{out}/estimate_report.csv", rows, f["mode_count"])
        result.samples += 2 * f["n"]          # written once, read back once
        if ref_dir is not None:
            for name in ("estimate.csv", "estimate_report.csv"):
                if (it_dir / out / name).read_bytes() != (ref_dir / out / name).read_bytes():
                    result.problems.append(
                        f"{out}/{name}: estimate read back from CSV differs from the "
                        "in-memory estimate at the same seed and n")


def _check_wideband(p, it_dir, codes, ref_dir, result):
    f = p.facts
    rows = _rows(it_dir / "estimate" / "estimate_report.csv")
    sigmas = [float(r["sigma"]) for r in rows]
    if sigmas != f["sigma_grid"]:
        result.problems.append(f"wideband report sigmas {sigmas} != {f['sigma_grid']}")
    result.problems += _error_problems("wideband estimate_report.csv", rows, f["mode_count"])
    result.samples += sum(int(r["n_used"]) for r in rows)
    frame_lines = _count_lines(it_dir / "evolve" / "frames.csv")
    if frame_lines != 1 + f["frames"] * f["grid_points"]:
        result.problems.append(f"frames.csv: {frame_lines} lines")


def _check_stream_quasi(p, it_dir, codes, ref_dir, result):
    rows = _rows(it_dir / "estimate" / "estimate_report.csv")
    if len(rows) != 1 or rows[0]["converged"] != "1":
        result.problems.append("stream-quasi did not report converged = 1")
    result.problems += _error_problems("stream estimate_report.csv", rows,
                                       p.facts["mode_count"])
    result.samples += sum(int(r["n_used"]) for r in rows)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))


_CHECKERS = {
    "montecarlo": _check_montecarlo,
    "csv-roundtrip": _check_csv_roundtrip,
    "wideband": _check_wideband,
    "stream-quasi": _check_stream_quasi,
}
