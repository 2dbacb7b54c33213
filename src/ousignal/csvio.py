"""CSV schemas for signals, spectra, samples, frames, and experiment tables."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ConfigError
from .fourier import FourierSignal, _grid
from .manifest import write_long_csv
from .model import OBSERVE_GRID, SampleSet, ScenarioConfig
from .spectral import ModeSpectrum


def write_fourier_csv(signal: FourierSignal, path) -> None:
    """Rows k,c,d for k = 0..K; the k=0 row carries (c0, 0)."""
    pairs = np.stack([np.r_[signal.c0, signal.c], np.r_[0.0, signal.d]], axis=-1)
    write_long_csv(path, ["k", "c", "d"], np.arange(signal.mode_count + 1), [(None, pairs)])


def write_spectrum_csv(spectrum: ModeSpectrum, path) -> None:
    """Rows k,sigma,omega for k = 0..K; k = 0 is the constant mode."""
    pairs = np.stack([spectrum.sigma, spectrum.omega], axis=-1)
    write_long_csv(path, ["k", "sigma", "omega"], np.arange(spectrum.sigma.size), [(None, pairs)])


def write_samples_csv(samples: SampleSet, path) -> None:
    """Long format: sample_id,x,value for grids, sample_id,k,c,d for coefficients.

    Rows are formatted and written one block of samples at a time.
    """
    blocks = samples._blocks()
    if samples.form == OBSERVE_GRID:
        header = ["sample_id", "x", "value"]
        shared = _grid(samples.config.theta.half_period, samples._width)
    else:
        header, shared = ["sample_id", "k", "c", "d"], np.arange(samples._width // 2 + 1)
        blocks = map(_coefficient_table, blocks)
    write_long_csv(path, header, shared, enumerate(chain.from_iterable(blocks)))


def _coefficient_table(coef: np.ndarray) -> np.ndarray:
    """(rows, 2K+1) coefficients as (rows, K+1, 2) pairs (c_k, d_k); the k=0 row has d = 0."""
    k_count = coef.shape[1] // 2
    d = np.hstack([np.zeros((coef.shape[0], 1)), coef[:, k_count + 1:]])
    return np.stack([coef[:, :k_count + 1], d], axis=-1)


def read_samples_csv(path, config: ScenarioConfig) -> SampleSet:
    """Rebuild a SampleSet written by write_samples_csv (noise draws unknown).

    Samples are taken in ascending sample_id order, each sample's rows in file
    order. sample_id must be an integer and k an integer from 0 to the
    config's mode count. In the grid schema every sample must have the same
    number G of rows, and its x values, in file order, must lie within a
    quarter step of the G-point grid of [-l, l). In the coefficient schema
    every sample must list each k from 0 to the file's largest k exactly once.
    """
    header, body = _read_table(path, "sample_id,x,value", "sample_id,k,c,d")
    ids = _integers(path, body[:, 0], "sample_id")
    if header == "sample_id,x,value":
        _, counts = np.unique(ids, return_counts=True)
        if counts.min() != counts.max():
            raise ConfigError(f"samples have inconsistent grid sizes: {counts.min()} to "
                              f"{counts.max()} rows per sample_id", source=str(path))
        order, points = np.argsort(ids, kind="stable"), counts[0]
        l = config.theta.half_period
        grid = _grid(l, points)
        off = ~(np.abs(body[order, 1].reshape(-1, points) - grid) <= l / (2 * points)).ravel()
        if off.any():  # a NaN x is off too
            first = np.argmax(off)
            at, j = order[first], first % points
            raise ConfigError(f"sample_id {ids[at]:g}: x = {body[at, 1]:g} in data row {at + 1} is "
                              f"more than a quarter step from grid point {j} (x = {grid[j]:.6g}) "
                              f"of the {points}-point grid of [-l, l)", source=str(path))
        values = body[order, 2].reshape(counts.size, points)
        return SampleSet(config, etas=np.full(counts.size, np.nan), grid_values=values)
    k = _integers(path, body[:, 1], "k", minimum=0)
    if k.max() > config.mode_count:  # refused before k sizes the coefficient matrix
        at = int(np.argmax(k > config.mode_count))
        raise ConfigError(f"k must be at most the mode count K = {config.mode_count}, found "
                          f"{k[at]:g} in data row {at + 1}", source=str(path))
    k = k.astype(np.intp)
    sample_ids, row = np.unique(ids, return_inverse=True)
    k_count = k.max()
    listed = np.bincount(row * (k_count + 1) + k, minlength=sample_ids.size * (k_count + 1))
    listed = listed.reshape(sample_ids.size, k_count + 1)
    bad = np.argwhere(listed != 1)
    if bad.size:  # a missing mode would read as 0, a repeated one hide a row
        at, k_bad = bad[0]
        fault = "missing" if listed[at, k_bad] == 0 else "repeated"
        raise ConfigError(f"sample_id {sample_ids[at]:g} must list every k from 0 to {k_count} "
                          f"exactly once; k = {k_bad} is {fault}", source=str(path))
    coef = np.zeros((sample_ids.size, 2 * k_count + 1))
    coef[row, k] = body[:, 2]
    mode = k > 0
    coef[row[mode], k_count + k[mode]] = body[mode, 3]
    return SampleSet(config, etas=np.full(coef.shape[0], np.nan), fourier_coef=coef)


def write_frames_csv(frames, path) -> None:
    """Long format t,x,value, each (t, GridSignal) frame written as it comes (one grid)."""
    frames = iter(frames)
    t, first = next(frames)
    write_long_csv(path, ["t", "x", "value"], first.grid,
                   ((t, grid.values) for t, grid in chain([(t, first)], frames)))


def _read_table(path, *headers: str) -> tuple[str, np.ndarray]:
    """The header of a CSV, which must be one of `headers`, and its rows as a float array.

    Blank lines are skipped. There must be at least one row, and every row
    must hold one number per column.
    """
    with open(path, newline="") as handle:
        header = handle.readline().rstrip("\r\n")
        has_rows = any(not line.isspace() for line in handle)
    if header not in headers:
        raise ConfigError(f"expected columns {' or '.join(headers)}, found {header or '<empty>'}",
                          source=str(path))
    if not has_rows:
        raise ConfigError("no data rows", source=str(path))
    try:
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:  # a row with a missing, extra or non-numeric cell
        raise ConfigError(f"bad row: {exc}", source=str(path)) from exc
    columns = header.count(",") + 1
    if body.shape[1] != columns:
        raise ConfigError(f"expected {columns} columns per row, found {body.shape[1]}",
                          source=str(path))
    return header, body


def _integers(path, column: np.ndarray, name: str, minimum: float = -np.inf) -> np.ndarray:
    """The column unchanged; a fraction, non-finite value or value below minimum is refused."""
    bad = ~np.isfinite(column) | (column != np.floor(column)) | (column < minimum)
    if bad.any():
        row = int(np.argmax(bad))
        rule = "an integer" if minimum == -np.inf else f"an integer >= {minimum:g}"
        raise ConfigError(f"{name} must be {rule}, found {column[row]:g} in data row {row + 1}",
                          source=str(path))
    return column
