"""Command-line harness: spectrum | evolve | sample | estimate | verify | convergence.

Each command reads a scenario config (file path or preset name), writes CSV
outputs plus a replayable manifest into --out, and uses documented exit codes:
0 success, 2 config or input error, 3 numeric instability, 4 convergence not
reached. `main` is the one runner: it loads the config, times the command and
records its manifest; each `cmd_*` takes (args, run, out_dir) and returns
(outputs, extra, exit_code).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import csvio
from .config import ESTIMATOR_INFINITE, RunConfig, load_config, parse_number
from .errors import ConfigError
from .estimation import EstimateReport, convergence_study, estimate_until_stable, run_estimate
from .manifest import ARTIFACT_VERSION, RunManifest, atomic_write_text, fmt, write_csv
from .model import (NOISE_MODES, NOISE_NONE, _draw, _noiseless, evolve_frames, sample_batch,
                    sample_source)
from .noise import _block_sizes, _pair_blocks, noise_covariance, noise_variance
from .spectral import mode_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4


def _parse_times(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"times range must be start:stop:count, got {spec!r}")
        start, stop = parse_number(parts[0]), parse_number(parts[1])
        if not (0 <= start < math.inf and 0 <= stop < math.inf):  # so linspace stays finite
            raise ConfigError(f"frame times must be non-negative and finite, got {spec!r}")
        count = int(parts[2])
        if count < 1:
            raise ConfigError("times count must be >= 1")
        return list(np.linspace(start, stop, count))
    return [parse_number(tok) for tok in spec.split(",")]


def _resolve(args) -> RunConfig:
    """Load the config and settle the effective seed (flag > file > entropy)."""
    run = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be an integer >= 0")
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        raise ConfigError("--n must be >= 1")
    quasi = run.scenario.quasi or args.quasi
    seed = run.scenario.seed if args.seed is None else args.seed
    if seed is None and not quasi:
        seed = int.from_bytes(os.urandom(8), "big") >> 1  # 63 bits of OS entropy
    return replace(run, scenario=replace(run.scenario, quasi=quasi, seed=seed,
                                         n=run.scenario.n if n is None else n))


def cmd_spectrum(args, run: RunConfig, out_dir: Path):
    sc = run.scenario
    spectrum = mode_spectrum(sc.op, sc.mode_count, sc.theta.half_period)
    out = out_dir / "spectrum.csv"
    csvio.write_spectrum_csv(spectrum, out)
    return [out], {}, EXIT_OK


def cmd_evolve(args, run: RunConfig, out_dir: Path):
    sc = run.scenario
    times = _parse_times(args.times) if args.times else list(np.linspace(0.0, sc.t0, 64))
    frames = evolve_frames(sc, times, noise=args.noise)
    out = out_dir / "frames.csv"
    csvio.write_frames_csv(frames, out)
    return [out], {}, EXIT_OK


def cmd_sample(args, run: RunConfig, out_dir: Path):
    batch = sample_batch(run.scenario)
    out = out_dir / "samples.csv"
    csvio.write_samples_csv(batch, out)
    return [out], {}, EXIT_OK


def cmd_estimate(args, run: RunConfig, out_dir: Path):
    sc = run.scenario
    extra: dict = {}

    if args.samples is not None and args.n is not None:
        raise ConfigError("--n cannot resize a --samples file, whose rows set the sample "
                          "count; drop --n or --samples")
    if run.estimator == ESTIMATOR_INFINITE:
        if args.samples is not None:
            raise ConfigError("--samples cannot feed estimator = infinite, which draws its "
                              "own stream; drop --samples or the estimator line")
        report = estimate_until_stable(sc, epsilon=run.epsilon, window=run.window,
                                       n_max=run.n_max)
        reports = [("estimate.csv", report)]
        extra = {"converged": report.converged, "epsilon": run.epsilon, "window": run.window,
                 "n_max": run.n_max}
        if not report.converged:
            print(f"no convergence after {report.n_used} samples (epsilon={run.epsilon:g})",
                  file=sys.stderr)
    elif args.samples is not None:
        reports = [("estimate.csv", run_estimate(csvio.read_samples_csv(args.samples, sc)))]
    else:  # one run, or a sweep whose sigmas share one noiseless base
        base = _noiseless(sc)
        runs = [(f"estimate_sigma{s:g}.csv", sc.with_sigma(s)) for s in run.sigma_grid]
        reports = [(name, run_estimate(_draw(cfg, base)))
                   for name, cfg in runs or [("estimate.csv", sc)]]

    outputs = [out_dir / name for name, _ in reports]
    for path, (_, report) in zip(outputs, reports):
        csvio.write_fourier_csv(report.estimate, path)
    report_path = out_dir / "estimate_report.csv"
    write_csv(report_path, EstimateReport._fields[:-1], [r[:-1] for _, r in reports])
    outputs.append(report_path)
    return outputs, extra, EXIT_OK if all(r.converged for _, r in reports) else EXIT_NO_CONVERGENCE


def cmd_verify(args, run: RunConfig, out_dir: Path):
    """Monte Carlo check of the analytic noise moments (3 standard errors)."""
    sc = run.scenario
    draws = args.n if args.n is not None else 100000
    if draws < 2:
        raise ConfigError("verify --n must be >= 2: a sample variance needs two draws")
    rows = []

    rng = sample_source(sc, (0, 0))  # each check folds its draws a block at a time
    analytic = noise_variance(sc.noise, sc.t0)
    values = (math.sqrt(analytic) * rng.normals(m) for m in _block_sizes(draws))
    empirical = _sample_covariance((x, x) for x in values)
    se = analytic * math.sqrt(2.0 / (draws - 1))
    rows.append(_check_row("variance", sc.t0, sc.t0, analytic, empirical, se))

    fractions = [(0.25, 0.5), (0.25, 1.0), (0.5, 0.75), (0.5, 1.0), (0.75, 1.0)]
    for i, (fs, ft) in enumerate(fractions):
        s, t = fs * sc.t0, ft * sc.t0
        pair_rng = sample_source(sc, (1, i), quasi_shift=2 * i)
        analytic = noise_covariance(sc.noise, s, t)
        empirical = _sample_covariance(_pair_blocks(sc.noise, s, t, draws, pair_rng))
        spread = noise_variance(sc.noise, s) * noise_variance(sc.noise, t) + analytic**2
        se = math.sqrt(spread / (draws - 1))
        rows.append(_check_row("covariance", s, t, analytic, empirical, se))

    out = out_dir / "verify.csv"
    write_csv(out, ["check", "s", "t", "analytic", "empirical", "se", "z", "passed"], rows)
    passed = all(r[-1] for r in rows)
    return [out], {"draws": draws, "all_passed": passed}, EXIT_OK if passed else EXIT_NUMERIC


def _sample_covariance(blocks) -> float:
    """Unbiased sample covariance of the pairs (x_j, y_j), read as blocks (x, y).

    Each block's count, means and co-moment are merged into the running ones
    by the pairwise update of Chan, Golub & LeVeque (1983), so memory is one
    block whatever the count; blocks (x, x) give the sample variance.
    """
    n, mean_x, mean_y, comoment = 0, 0.0, 0.0, 0.0
    for x, y in blocks:
        m = x.size
        bx, by = float(x.mean()), float(y.mean())
        dx, dy = bx - mean_x, by - mean_y
        comoment += float(np.dot(x - bx, y - by)) + dx * dy * n * m / (n + m)
        mean_x += dx * m / (n + m)
        mean_y += dy * m / (n + m)
        n += m
    return comoment / (n - 1)


def _check_row(name, s, t, analytic, empirical, se):
    diff = empirical - analytic
    z = 0.0 if (se == 0.0 and diff == 0.0) else (math.inf if se == 0.0 else diff / se)
    return (name, s, t, analytic, empirical, se, z, abs(z) <= 3.0)


def cmd_convergence(args, run: RunConfig, out_dir: Path):
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --n-grid: {exc}") from exc
    study = convergence_study(run.scenario, n_grid, args.trials)
    experiment = out_dir / "experiment.csv"
    write_csv(experiment, ["n", "trial", "sup_error", "c0_error", "max_mode_error"], study.rows)
    summary = out_dir / "summary.csv"
    slope_repr = fmt(study.slope) if study.slope is not None else "undefined"
    write_csv(summary, ["n", "mean_error", "sd_error"], study.summary,
              trailer=f"# slope={slope_repr}")
    return [experiment, summary], {"slope": study.slope, "trials": args.trials,
                                   "n_grid": n_grid}, EXIT_OK


def replay_manifest(manifest_path, out_dir) -> int:
    """Re-run a recorded command with its saved config and arguments.

    Each recorded argument is passed back under the parser's own spelling of
    its dest (`--` plus the dest with `-` for `_`), as `--flag=value` so that
    a value starting with `-` still parses; a true value is a bare flag, and
    None, False and the command name are skipped.
    """
    manifest = RunManifest.load(manifest_path)
    if manifest.artifact_version != ARTIFACT_VERSION:
        print(f"config error: {manifest_path} has artifact version {manifest.artifact_version}; "
              f"version {ARTIFACT_VERSION} cannot reproduce its outputs", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "replayed.cfg"
    atomic_write_text(cfg_path, manifest.config_text)
    argv = [manifest.command, "--config", str(cfg_path), "--out", str(out_dir)]
    for key, value in manifest.args.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        argv.append(flag if value is True else f"{flag}={value}")
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ousignal",
        description="Simulate a stochastically perturbed spectral transmission channel "
                    "and recover the transmitted signal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="config file path or preset name (ex41, ex42, ex43)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="pseudo-random seed override")
        p.add_argument("--quasi", action="store_true",
                       help="drive sampling with the deterministic quasi-random sequence")

    p = sub.add_parser("spectrum", help="emit per-mode rates sigma_k, omega_k")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="emit frames of the evolving signal")
    common(p)
    p.add_argument("--times", default=None,
                   help="start:stop:count or comma list (pi tokens allowed)")
    p.add_argument("--noise", choices=NOISE_MODES, default=NOISE_NONE)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sample", help="draw observed transformed signals")
    common(p)
    p.add_argument("--n", type=int, default=None, help="sample count override")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="recover the input signal from samples")
    common(p)
    p.add_argument("--n", type=int, default=None, help="sample count override")
    p.add_argument("--samples", default=None, help="existing samples CSV to estimate from")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="Monte Carlo check of the analytic noise moments")
    common(p)
    p.add_argument("--n", type=int, default=None, help="number of draws (default 100000)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convergence", help="error decay study over sample sizes")
    common(p)
    p.add_argument("--n-grid", default="100,1000,10000",
                   help="comma list of sample sizes, ascending")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    """Run one command: load its config, run it, and record its manifest."""
    args = build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        run = _resolve(args)
        outputs, extra, code = args.func(args, run, out_dir)
        recorded = {k: v for k, v in vars(args).items() if k not in ("func", "config", "out")}
        RunManifest(
            command=args.command,
            config_text=run.text,
            args={**recorded, "seed": run.scenario.seed},
            seed=run.scenario.seed if not run.scenario.quasi else None,
            scenario=run.scenario.to_dict(),
            outputs=[p.name for p in outputs],
            duration_seconds=time.monotonic() - started,
            extra=extra,
        ).save(out_dir / f"{args.command}.manifest.json")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:  # overflow, amplification, rates
        print(f"numeric instability: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # OSError: unreadable input or unwritable --out
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a K or G whose arrays cannot be allocated
        print(f"input too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
