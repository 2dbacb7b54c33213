"""CSV schemas for signals, spectra, samples, frames, and experiment tables."""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, islice

import numpy as np

from .errors import ConfigError
from .fourier import FourierSignal, _grid
from .manifest import write_long_csv
from .model import OBSERVE_FOURIER, OBSERVE_GRID, SampleSet, ScenarioConfig, _coefficient_row
from .noise import _BLOCK
from .spectral import ModeSpectrum


def write_fourier_csv(signal: FourierSignal, path) -> None:
    """Rows k,c,d for k = 0..K; the k=0 row carries (c0, 0)."""
    write_long_csv(path, ["k", "c", "d"], np.arange(signal.mode_count + 1),
                   [(None, _coefficient_row(signal))])


def write_spectrum_csv(spectrum: ModeSpectrum, path) -> None:
    """Rows k,sigma,omega for k = 0..K; k = 0 is the constant mode."""
    pairs = np.stack([spectrum.sigma, spectrum.omega], axis=-1)
    write_long_csv(path, ["k", "sigma", "omega"], np.arange(spectrum.sigma.size), [(None, pairs)])


def write_samples_csv(samples: SampleSet, path) -> None:
    """Long format, sample_id,x,value (grid) or sample_id,k,c,d, a block of samples at a time;
    a coefficient row is its lines' c,d cells as they stand. The set is read once."""
    blocks = samples._blocks()
    first = next(blocks)
    if samples.form == OBSERVE_GRID:
        header = ["sample_id", "x", "value"]
        shared = _grid(samples.config.theta.half_period, first.shape[1])
    else:
        header, shared = ["sample_id", "k", "c", "d"], np.arange(first.shape[1] // 2)
    write_long_csv(path, header, shared, enumerate(chain.from_iterable(chain([first], blocks))))


def read_samples_csv(path, config: ScenarioConfig) -> SampleSet:
    """The SampleSet of a file that write_samples_csv wrote, parsed at each read. sample_id is an
    integer that never decreases from one data row to the next, each run of one id a sample
    (see _sample_rows). Refusals name data rows, blank lines not counted."""
    with open(path) as handle:
        header = handle.readline().rstrip("\r\n")
    form = {"sample_id,x,value": OBSERVE_GRID, "sample_id,k,c,d": OBSERVE_FOURIER}.get(header)
    if form is None:
        raise ConfigError("expected columns sample_id,x,value or sample_id,k,c,d, found "
                          f"{header or '<empty>'}", source=str(path))
    return SampleSet(config, form, lambda: _sample_blocks(path, config, form))


def _sample_blocks(path, config: ScenarioConfig, form: str):
    """A samples CSV's samples as row blocks, parsed 2**14 values of lines at a time and
    checked by _sample_rows. The parses of samples not yet complete are held, and joined once
    a later sample starts, the file ends or they are longer than a sample. A file of one
    parse is checked ids, sizes, then the position of each line."""
    columns = 3 if form == OBSERVE_GRID else 4
    lines, ended, size, last, held, start, count = _BLOCK // columns, False, None, -np.inf, [], 0, 0
    with open(path) as handle:  # held: the parses of data rows start + 1 to start + count
        handle.readline()
        while not ended:
            text = list(islice(handle, lines))
            ended, end = len(text) < lines, 0  # end: the held rows whose samples are complete
            if any(line != "\n" for line in text):  # np.loadtxt warns on blank lines alone
                rows = _parse(path, text, start + count + 1, columns)
                ids = _integers(path, rows[:, 0], "sample_id", start + count)
                before = np.r_[last, ids[:-1]]
                if (ids < before).any():
                    at = int(np.argmax(ids < before))
                    raise ConfigError(f"sample_id must not decrease from one data row to the next: "
                                      f"{ids[at]:g} follows {before[at]:g} in data row "
                                      f"{start + count + at + 1}", source=str(path))
                firsts = np.flatnonzero(ids != before)  # where a later sample starts
                end = count + firsts[-1] if firsts.size else 0
                held.append(rows)
                count, last = count + len(rows), ids[-1]
            if ended or size is not None and count - end > size:
                end = count
            if end:
                table = np.concatenate(held)
                block, size = _sample_rows(path, config, form, table[:end], start, size)
                yield block
                held, start, count = [table[end:].copy()], start + end, count - end
    if not start:
        raise ConfigError("no data rows", source=str(path))


def _sample_rows(path, config: ScenarioConfig, form: str, rows: np.ndarray, start: int,
                 size: int | None) -> tuple[np.ndarray, int]:
    """(row block, lines per sample) of whole samples, rows[0] in data row start + 1, in the
    writer's layout: each sample has size lines (the first sample's, unless given), and line
    j of a sample is grid point j of [-l, l), its x within a quarter step, or mode k = j up
    to K. A coefficient row is its lines' c,d cells, the d at k = 0 read as 0."""
    ids, l, modes = rows[:, 0], config.theta.half_period, config.mode_count
    counts = np.diff(np.r_[0, np.flatnonzero(ids[1:] != ids[:-1]) + 1, len(rows)])
    size, grid = size or int(counts[0]), form == OBSERVE_GRID
    if grid:
        kind, name, position, tolerance = "grid", "x", _grid(l, size), l / (2 * size)
        rule = ("more than a quarter step from grid point {j} (x = {p:.6g}) of the {size}-point "
                "grid of [-l, l)")
    else:
        kind, name, position, tolerance = "coefficient", "k", np.arange(size, dtype=float), 0
        position[modes + 1:] = np.nan  # no k is right on a line past K
        rule = "not line {j}'s k: a sample lists k = 0, 1, 2, ... in line order, up to K = {K}"
    if np.any(counts != size):
        i = int(np.argmax(counts != size))
        at = counts[:i].sum()
        raise ConfigError(f"samples have inconsistent {kind} sizes: sample_id {ids[at]:g} from "
                          f"data row {start + at + 1} has {counts[i]} rows, not the first "
                          f"sample's {size}", source=str(path))
    off = ~(np.abs(rows[:, 1].reshape(-1, size) - position) <= tolerance)  # a NaN is off too
    if off.any():
        at = int(np.argmax(off))
        j = at % size
        rule = rule.format(j=j, p=position[j], size=size, K=modes)
        raise ConfigError(f"sample_id {ids[at]:g}: {name} = {rows[at, 1]:g} in data row "
                          f"{start + at + 1} is {rule}", source=str(path))
    block = np.ascontiguousarray(rows[:, 2:].reshape(len(rows) // size, -1))
    if not grid:
        block[:, 1] = 0.0  # the file's d at k = 0 is not read
    return block, size


def write_frames_csv(frames, path) -> None:
    """Long format t,x,value, each (t, GridSignal) frame written as it comes (one grid)."""
    frames = iter(frames)
    t, first = next(frames)
    write_long_csv(path, ["t", "x", "value"], first.grid,
                   ((t, grid.values) for t, grid in chain([(t, first)], frames)))


def _parse(path, lines: list[str], first: int, columns: int) -> np.ndarray:
    """The lines, data rows first, first + 1, ..., as (rows, columns) numbers, or a refusal."""
    with suppress(ValueError):  # a row with a missing, extra or non-numeric cell
        body = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        if body.shape[1] == columns:
            return body
    for at, line in enumerate((line for line in lines if line != "\n"), start=first):
        try:
            found = np.loadtxt([line], delimiter=",", ndmin=2, comments=None).shape[1]
        except ValueError:
            raise ConfigError(f"bad row: data row {at} holds a cell that is not a number: "
                              f"{line.strip()!r}", source=str(path)) from None
        if found != columns:
            raise ConfigError(f"bad row: expected {columns} columns per row, found {found} in "
                              f"data row {at}: the number of columns changed", source=str(path))


def _integers(path, column: np.ndarray, name: str, start: int) -> np.ndarray:
    """The column, row i data row start + i + 1, unchanged; a fraction or non-finite value is
    refused."""
    bad = ~np.isfinite(column) | (column != np.floor(column))
    if bad.any():
        row = int(np.argmax(bad))
        raise ConfigError(f"{name} must be an integer, found {column[row]:g} in data row "
                          f"{start + row + 1}", source=str(path))
    return column
