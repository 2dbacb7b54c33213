"""Benchmark of the ousignal command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from `src/`. One
client runs the workload's commands one after another, each in a fresh
process (a closed loop, no concurrency), and repeats the whole list until
`--seconds` have passed. The inputs (config files and `--seed` values) come
from `--seed` alone, and every iteration must reproduce the first one's CSV
outputs byte for byte.

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced iterations and reports the per-module metrics from the traced ones.
The last line of standard output is one JSON object; the lines above it
print every metric by name with its unit. A fuller record, with the machine
it ran on, goes to .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from spans import COUNT_NAMES, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
SETUP_RUNS = 5            # set-up processes before the loop; one more after each iteration
HARD_LIMIT_S = 165.0      # stop starting work after this, to exit within 180 s
MB = 1024.0               # ru_maxrss is in KiB on Linux

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}

LAYER_TIMES = {           # per-layer metric -> span name whose self time it reports
    "noise.self_s": "noise", "model.self_s": "model", "spectral.self_s": "spectral",
    "fourier.self_s": "fourier", "estimation.self_s": "estimation",
    "csvio.write_s": "csvio.write", "csvio.read_s": "csvio.read",
    "cli.config_s": "cli.config", "cli.manifest_s": "cli.manifest", "cli.self_s": "cli",
    "trace.self_s": "trace",
}
COUNT_UNITS = {"csvio.bytes_written": "bytes", "fourier.table_bytes_computed": "bytes",
               "fourier.flops_computed": "flop"}


def machine() -> dict:
    """The machine a result was measured on (read from /proc and /sys only)."""
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "note": "timings are wall clock of this benchmark's own processes; no "
                    "machine-wide tracing or profiling tools were used"}
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
            elif line.startswith("flags"):
                info["virtualized"] = "hypervisor" in line.split()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith(("MemAvailable", "MemTotal")):
                key, value = line.split(":", 1)
                info[key] = value.strip()
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


class Runner:
    """Starts each child, waits for it, and records its exit code and peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def child(self, argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
        """Run one process; return (exit code, wall seconds, ru_maxrss in MB)."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(log, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / MB

    def command(self, cmd: workloads.Command, it_dir: Path, spans: Path | None):
        """Run one ousignal command of a workload; failures are counted."""
        args = list(cmd.args)
        if cmd.samples_in:
            args.append(str(it_dir / cmd.samples_in / "samples.csv"))
        args += ["--out", str(it_dir / cmd.out)]
        mode = ["trace", str(spans)] if spans else ["run"]
        code, wall, rss = self.child([str(LAUNCH), *mode, "--", *args], it_dir,
                                     it_dir / f"{cmd.label}.stderr")
        self.attempted += 1
        if code not in cmd.ok_codes:
            self.failed += 1
            tail = (it_dir / f"{cmd.label}.stderr").read_text(errors="replace")[-400:]
            self.errors.append(f"{cmd.label} exited {code}: {tail.strip()}")
        return code, wall, rss

    def setup(self, configs: list[str], cwd: Path) -> float:
        """Import ousignal and load the configs in a fresh process; a failure counts."""
        code, wall, _ = self.child([str(LAUNCH), "setup", "--", *configs], cwd, cwd / "setup.stderr")
        if code != 0:
            self.attempted += 1
            self.failed += 1
            tail = (cwd / "setup.stderr").read_text(errors="replace")[-400:]
            self.errors.append(f"set-up exited {code}: {tail.strip()}")
        return wall


def digest(it_dir: Path) -> str:
    """Hash of every CSV an iteration wrote (manifests hold timings, so they are left out)."""
    h = hashlib.sha256()
    for path in sorted(it_dir.rglob("*.csv")):
        h.update(str(path.relative_to(it_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def iteration(runner: Runner, plan: workloads.Plan, it_dir: Path, traced: bool) -> dict:
    it_dir.mkdir(parents=True)
    codes, walls, rss, spans = {}, {}, [], []
    started = time.perf_counter()
    for cmd in plan.commands:
        span_file = it_dir / f"spans-{cmd.label}" if traced else None
        code, walls[cmd.label], peak = runner.command(cmd, it_dir, span_file)
        codes[cmd.label] = code
        rss.append(peak)
        if span_file is not None:
            spans.append(span_file)
    wall = time.perf_counter() - started
    return {"wall_s": wall, "command_s": walls, "codes": codes, "peak_rss_mb": max(rss),
            "spans": spans}


def layer_metrics(spans: list[Path]) -> tuple[dict, dict, int, list[str]]:
    """Self time per span name and counters, summed over one iteration's processes."""
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    n_spans, missing = 0, set()
    for path in spans:
        if not Path(f"{path}.json").exists():
            missing.add(f"span file of {path.name} (the process did not finish)")
            continue
        own, header = self_times(str(path))
        for name, value in own.items():
            times[name] = times.get(name, 0.0) + value
        for name, value in header["counts"].items():
            counts[name] = counts.get(name, 0) + value
        n_spans += header["spans"]
        missing.update(header["missing"])
    return times, counts, n_spans, sorted(missing)


def measure(args, work: Path) -> dict:
    started = time.perf_counter()
    runner = Runner(started + HARD_LIMIT_S)
    plan = workloads.plan(args.workload, args.seed, work / "inputs")
    out: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "machine": machine(),
                 "notes": [], "problems": [], "iterations": []}

    runner.setup(plan.setup_configs, work)              # warm-up: byte-compiles the package
    setup_walls: list[float] = []
    if not args.trace:
        setup_walls += [runner.setup(plan.setup_configs, work) for _ in range(SETUP_RUNS)]

    ref_dir = None
    if plan.references:
        ref_dir = work / "reference"
        ref_dir.mkdir()
        for cmd in plan.references:
            runner.command(cmd, ref_dir, None)

    loop_start = time.perf_counter()
    first_digest, k = None, 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        it_dir = work / f"it{k}"
        it = iteration(runner, plan, it_dir, traced)
        result = workloads.check(plan, it_dir, it["codes"], ref_dir)
        it_digest = digest(it_dir)
        if first_digest is None:
            first_digest = it_digest
        elif it_digest != first_digest:
            result.problems.append(f"iteration {k} ({'traced' if traced else 'plain'}) wrote "
                                   "different CSV bytes than iteration 0")
        if result.problems and not any(c not in cmd.ok_codes for cmd, c in
                                       zip(plan.commands, it["codes"].values())):
            runner.failed += 1
        out["problems"] += result.problems
        out["notes"] += [n for n in result.notes if n not in out["notes"]]
        it.update(traced=traced, samples=result.samples)
        if traced:
            it["times"], it["counts"], it["n_spans"], missing = layer_metrics(it["spans"])
            if missing:
                note = "not found to trace: " + ", ".join(missing)
                if note not in out["notes"]:
                    out["notes"].append(note)
        it["spans"] = [str(p.name) for p in it["spans"]]
        out["iterations"].append(it)
        shutil.rmtree(it_dir)
        k += 1
        if not args.trace:
            setup_walls.append(runner.setup(plan.setup_configs, work))
        # Start another iteration only if it should end within --seconds.
        elapsed = time.perf_counter() - loop_start
        enough = k >= (2 if args.trace else 1)
        if time.perf_counter() >= runner.deadline or (
                enough and elapsed * (k + 1) / k > args.seconds):
            break

    out.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
               loop_s=time.perf_counter() - loop_start, setup_walls=setup_walls)
    out["metrics"] = per_layer(out) if args.trace else end_to_end(out, setup_walls)
    return out


def best_wall(iterations: list[dict]) -> float:
    """Each command's fastest run over the iterations, summed over the commands.

    The host's speed drifts by tens of percent over seconds to minutes, with
    load from other tenants that the guest cannot see. A run's median follows
    that drift; the fastest run of each command is where it least shows.
    """
    labels = iterations[0]["command_s"]
    return sum(min(it["command_s"][label] for it in iterations) for label in labels)


def end_to_end(out: dict, setup_walls: list[float]) -> dict:
    plain = out["iterations"]
    wall = best_wall(plain)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "samples_per_s": plain[0]["samples"] / wall,
        "peak_rss_mb": max(it["peak_rss_mb"] for it in plain),
    }


def per_layer(out: dict) -> dict:
    traced = [it for it in out["iterations"] if it["traced"]]
    plain = [it for it in out["iterations"] if not it["traced"]]
    metrics = {name: statistics.median(it["times"].get(span, 0.0) for it in traced)
               for name, span in LAYER_TIMES.items()}
    counts = {name: traced[0]["counts"].get(name, 0) for name in COUNT_NAMES}
    if any(it["counts"] != traced[0]["counts"] for it in traced[1:]):
        out["notes"].append("counters differ between traced iterations")
    metrics.update(counts)
    metrics["noise.gaussians_per_sample"] = (
        counts["noise.gaussians"] / counts["noise.samples"] if counts["noise.samples"] else 0.0)
    metrics["trace.overhead_s"] = best_wall(traced) - best_wall(plain)
    metrics["trace.accounted_share"] = statistics.median(
        sum(v for k, v in it["times"].items() if k != "root") / it["wall_s"] for it in traced)
    metrics["trace.spans"] = traced[0]["n_spans"]
    return metrics


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name in ("noise.gaussians_per_sample", "trace.accounted_share"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ousignal" / "cli.py").is_file():
        print(f"no ousignal source under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench-work" / "results"
    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1) + "\n")

    walls = [f"{it['wall_s']:.3f}{'T' if it['traced'] else ''}" for it in out["iterations"]]
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} iterations "
          f"[{' '.join(walls)}] s (T: traced)")
    print(f"machine {json.dumps(out['machine'])}")
    for note in out["notes"]:
        print(f"note: {note}")
    for problem in out["problems"] + out["errors"]:
        print(f"FAILED: {problem}")
    ratio = out["failed"] / out["attempted"]
    print(f"fail_ratio {ratio:.4g} ({out['failed']} of {out['attempted']} commands)")
    for name, value in out["metrics"].items():
        print(f"{name} {value:.6g} {unit(name)}")
    correct = not out["problems"] and not out["errors"] and out["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
