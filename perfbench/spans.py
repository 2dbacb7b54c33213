"""Timing spans and counters around the public functions of each ousignal module.

Used only by the traced run. `Tracer.install()` replaces each function listed
in LAYERS with a wrapper, in its defining module and in every ousignal module
that imported it by name. A wrapper opens a span when control crosses into
its layer from another layer; calls inside the same layer run unwrapped
apart from their counters. Each span records a name, start, end and parent
index. Spans stay in memory and `dump()` writes them out once, when the
process ends. `self_times()` turns a span file into per-layer self time:
a span's duration minus the part its child spans cover.

Nothing inside the ousignal package is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

ROOT = "cli"
TRACE = "trace"   # the tracer's own work: its import and re-reading written files

# (span name, module, public names). A name may be "Class.method".
# manifest.write_csv formats every CSV the CLI writes, so it counts as csvio.
LAYERS = [
    ("cli.config", "ousignal.config", ["load_config", "parse_config_text", "preset_text"]),
    ("cli.manifest", "ousignal.manifest", ["RunManifest.save", "RunManifest.load"]),
    ("csvio.write", "ousignal.csvio", ["write_fourier_csv", "write_grid_csv",
                                       "write_spectrum_csv", "write_samples_csv",
                                       "write_frames_csv"]),
    ("csvio.write", "ousignal.manifest", ["write_csv"]),
    ("csvio.read", "ousignal.csvio", ["read_fourier_csv", "read_grid_csv", "read_samples_csv"]),
    ("noise", "ousignal.noise", [
        "gaussian_inverse_cdf", "quasi_gaussian", "nth_prime", "wiener_path_value",
        "noise_variance", "noise_covariance", "ou_integral_exact", "ou_integral_series",
        "ou_joint_pairs", "RandomSource.pseudo", "RandomSource.quasi",
        "RandomSource.normal", "RandomSource.normals", "RandomSource.substream"]),
    ("model", "ousignal.model", [
        "analytic_mean", "sample_source", "sample_transformed", "sample_batch",
        "empirical_moments", "evolve_frames", "SampleSet.signal", "SampleSet.signals",
        "SampleSet.mean_signal", "SampleSet.values_at", "ScenarioConfig.with_sigma",
        "ScenarioConfig.to_dict"]),
    ("spectral", "ousignal.spectral", [
        "mode_spectrum", "propagate", "inverse_propagate", "stability_report"]),
    ("fourier", "ousignal.fourier", [
        "extract_coefficients", "sup_distance", "FourierSignal.build",
        "FourierSignal.evaluate", "FourierSignal.evaluate_grid", "FourierSignal.padded",
        "FourierSignal.plus_constant", "FourierSignal.mode_radii",
        "GridSignal.nearest_index", "GridSignal.value_near"]),
    ("estimation", "ousignal.estimation", [
        "estimate_signal", "error_report", "run_estimate", "estimate_until_stable",
        "convergence_study"]),
]


# ---------------------------------------------------------------------------
# counters: (layer name, public name) -> function(counts, tracer, args, kwargs, result)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_table(c, tr, key, flops):
    """Matmuls against the cached cos/sin tables: two float64 tables per (l, K, G)."""
    c["fourier.flops_computed"] += flops
    if key not in tr.tables:
        tr.tables.add(key)
        c["fourier.table_bytes_computed"] += 16 * key[1] * key[2]


def _count_evaluate_grid(c, tr, args, kwargs, result):
    signal, points = args[0], _arg(args, kwargs, 1, "grid_points")
    c["fourier.evaluate_grid_calls"] += 1
    if signal.mode_count:
        _count_table(c, tr, (signal.half_period, signal.mode_count, points),
                     4 * signal.mode_count * points)


def _count_extract(c, tr, args, kwargs, result):
    grid, k = args[0], _arg(args, kwargs, 1, "mode_count")
    c["fourier.extract_calls"] += 1
    _count_table(c, tr, (grid.half_period, k, grid.grid_points), 4 * k * grid.grid_points)


def _count_sup(c, tr, args, kwargs, result):
    c["fourier.sup_distance_calls"] += 1
    a, b = args[0], args[1]
    probe = args[2] if len(args) > 2 else kwargs.get("probe_points", tr.default_probe)
    for signal in (a, b):
        if hasattr(signal, "mode_count") and signal.mode_count:
            _count_table(c, tr, (signal.half_period, signal.mode_count, probe),
                         4 * signal.mode_count * probe)


def _count_modes(key):
    def count(c, tr, args, kwargs, result):
        c[key] += 1
        c["spectral.mode_updates"] += args[0].mode_count
    return count


def _count_zeroed(c, tr, args, kwargs, result):
    before, after = args[0], result[0]
    live = (before.c != 0.0) | (before.d != 0.0)
    dead = (after.c == 0.0) & (after.d == 0.0)
    c["estimation.modes_zeroed"] += int((live & dead).sum())


def _count_stream(c, tr, args, kwargs, result):
    c["estimation.estimates"] += 1
    c["estimation.stream_steps"] += result[1]


def _count_written(c, tr, args, kwargs, result):
    path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
    tr.count_file(path, "written")


def _count_read(c, tr, args, kwargs, result):
    tr.count_file(args[0], "read")


def _count_batch(c, tr, args, kwargs, result):
    c["model.samples"] += args[0].n
    c["model.batches"] += 1


def _plus(key):
    def count(c, tr, args, kwargs, result):
        c[key] += 1
    return count


def _plus_arg(key, index, name):
    def count(c, tr, args, kwargs, result):
        c[key] += _arg(args, kwargs, index, name)
    return count


COUNTERS = {
    ("noise", "RandomSource.normal"): _plus("noise.gaussians"),
    ("noise", "RandomSource.normals"): _plus_arg("noise.gaussians", 1, "count"),
    ("noise", "ou_integral_exact"): _plus("noise.samples"),
    ("noise", "ou_integral_series"): _plus("noise.samples"),
    ("noise", "ou_joint_pairs"): _plus_arg("noise.samples", 3, "count"),
    ("model", "sample_batch"): _count_batch,
    ("model", "sample_transformed"): _plus("model.samples"),
    ("spectral", "propagate"): _count_modes("spectral.propagate_calls"),
    ("spectral", "inverse_propagate"): _count_modes("spectral.inverse_calls"),
    ("fourier", "FourierSignal.evaluate_grid"): _count_evaluate_grid,
    ("fourier", "extract_coefficients"): _count_extract,
    ("fourier", "sup_distance"): _count_sup,
    ("estimation", "estimate_signal"): _plus("estimation.estimates"),
    ("estimation", "run_estimate"): _plus("estimation.estimates"),
    ("estimation", "estimate_until_stable"): _count_stream,
    # File counters ("*": every function of the layer) run once per outermost
    # call, so write_samples_csv -> write_csv counts one file.
    ("csvio.write", "*"): _count_written,
    ("csvio.read", "*"): _count_read,
}

# Counted without a span (private helpers; numpy seeding is in _count_seeding).
EXTRA_COUNTERS = [
    ("ousignal.estimation", "_cap_unrecoverable_modes", _count_zeroed),
]

COUNT_NAMES = [
    "noise.gaussians", "noise.samples", "noise.streams_seeded", "model.samples",
    "model.batches", "spectral.propagate_calls", "spectral.inverse_calls",
    "spectral.mode_updates", "fourier.evaluate_grid_calls", "fourier.extract_calls",
    "fourier.sup_distance_calls", "fourier.table_bytes_computed", "fourier.flops_computed",
    "estimation.estimates", "estimation.stream_steps", "estimation.modes_zeroed",
    "csvio.rows_written", "csvio.rows_read", "csvio.bytes_written",
]


class Tracer:
    def __init__(self, start: float):
        self.names: list[str] = [ROOT, TRACE]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i", [0])
        self.parent = array("i", [-1])
        self.start = array("d", [start])
        self.end = array("d", [0.0])
        self.stack = [(0, 0)]        # (layer id, span index)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.tables: set = set()
        self.missing: list[str] = []
        self.default_probe = 4096
        self._restore: list = []

    def _id(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def _open(self, layer_id: int) -> int:
        index = len(self.start)
        self.name.append(layer_id)
        self.parent.append(self.stack[-1][1])
        self.end.append(0.0)
        self.stack.append((layer_id, index))
        self.start.append(time.perf_counter())
        return index

    def add_span(self, span_name: str, start: float, end: float) -> None:
        """Record a finished span under the current one."""
        self.name.append(self._id(span_name))
        self.parent.append(self.stack[-1][1])
        self.start.append(start)
        self.end.append(end)

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def count_file(self, path, direction: str) -> None:
        """Rows (lines after the header, '#' lines excluded) and bytes of a CSV."""
        index = self._open(self._ids[TRACE])
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            rows = data.count(b"\n") - 1 - data.count(b"\n#")
            self.counts[f"csvio.rows_{direction}"] += rows
            if direction == "written":
                self.counts["csvio.bytes_written"] += len(data)
        finally:
            self._close(index)

    def wrap(self, fn, layer_id: int, counter, outer_only: bool):
        tracer, counts, stack, end = self, self.counts, self.stack, self.end
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer_id:
                result = fn(*args, **kwargs)
                if counter is not None and not outer_only:
                    counter(counts, tracer, args, kwargs, result)
                return result
            index = len(end)
            add_name(layer_id)
            add_parent(top[1])
            add_end(0.0)
            stack.append((layer_id, index))
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, tracer, args, kwargs, result)
            return result

        return traced

    def _replace(self, module, owner, attr: str, make) -> bool:
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if not callable(fn) or inspect.isgeneratorfunction(fn):
            return False
        new = make(fn)
        setattr(owner, attr, kind(new) if kind else new)
        self._restore.append((owner, attr, raw))
        if owner is module:
            # Rebind `from .module import name` copies in the other modules.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("ousignal") and other is not module:
                    if other.__dict__.get(attr) is raw:
                        setattr(other, attr, new)
                        self._restore.append((other, attr, raw))
        return True

    def install(self) -> None:
        for span_name, module_name, names in LAYERS:
            module = importlib.import_module(module_name)
            layer_id = self._id(span_name)
            for public in names:
                owner, attr = module, public
                if "." in public:
                    owner = getattr(module, public.split(".")[0], None)
                    attr = public.split(".")[1]
                counter = COUNTERS.get((span_name, public))
                outer_only = counter is None and (span_name, "*") in COUNTERS
                counter = counter or COUNTERS.get((span_name, "*"))
                if owner is None or not self._replace(
                        module, owner, attr,
                        lambda fn, lid=layer_id, c=counter, o=outer_only: self.wrap(fn, lid, c, o)):
                    self.missing.append(f"{module_name}.{public}")
        for module_name, attr, counter in EXTRA_COUNTERS:
            module = importlib.import_module(module_name)
            if not self._replace(module, module, attr,
                                 lambda fn, c=counter: self._counting(fn, c)):
                self.missing.append(f"{module_name}.{attr}")
        self._count_seeding()
        fourier = sys.modules.get("ousignal.fourier")
        self.default_probe = getattr(fourier, "DEFAULT_PROBE_POINTS", 4096)

    def _counting(self, fn, counter):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(counts, tracer, args, kwargs, result)
            return result

        return counted

    def _count_seeding(self) -> None:
        """Count random streams seeded: numpy generators and bit generators made."""
        import numpy.random as npr

        for attr in ("default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"):
            original = getattr(npr, attr, None)
            if original is None:
                continue

            def seeded(*args, _original=original, **kwargs):
                self.counts["noise.streams_seeded"] += 1
                return _original(*args, **kwargs)

            setattr(npr, attr, seeded)
            self._restore.append((npr, attr, original))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def finish(self) -> None:
        self.end[0] = time.perf_counter()

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and a JSON header beside them."""
        with open(path + ".bin", "wb") as handle:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)
        header = {"names": self.names, "spans": len(self.start), "counts": self.counts,
                  "missing": self.missing}
        with open(path + ".json", "w") as handle:
            json.dump(header, handle)


def read_spans(path: str):
    """Load a span file written by Tracer.dump: (header, name, parent, start, end)."""
    import numpy as np

    with open(path + ".json") as handle:
        header = json.load(handle)
    n = header["spans"]
    raw = open(path + ".bin", "rb").read()
    ints = np.frombuffer(raw, dtype=np.int32, count=2 * n)
    floats = np.frombuffer(raw, dtype=np.float64, count=2 * n, offset=8 * n)
    return header, ints[:n], ints[n:], floats[:n], floats[n:]


def self_times(path: str) -> tuple[dict, dict]:
    """Per-layer self time (s) and the counters of one traced process."""
    import numpy as np

    header, name, parent, start, end = read_spans(path)
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=name.size)
    own = np.bincount(name, weights=duration - covered, minlength=len(header["names"]))
    times = {layer: float(own[i]) for i, layer in enumerate(header["names"])}
    times["root"] = float(duration[0])
    return times, header
