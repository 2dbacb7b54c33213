"""Columnar CSV writers and readers against the per-cell reference format."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _util import make_config, sample_rows, signal_row
from ousignal import ConfigError, SampleSet, csvio, model, propagate, run_estimate, sample_batch
from ousignal.cli import main
from ousignal.csvio import (read_samples_csv, write_fourier_csv, write_frames_csv,
                            write_samples_csv, write_spectrum_csv)
from ousignal.fourier import FourierSignal, GridSignal
from ousignal.manifest import write_csv
from ousignal.noise import _block_sizes
from ousignal.spectral import ModeSpectrum

EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


def _reference_samples_csv(form, matrix, path):
    """Reference writer of a sample matrix: one fmt call per cell, through write_csv."""
    n = matrix.shape[0]
    if form == "grid":
        x = GridSignal(math.pi, matrix[0]).grid
        rows = ((i, x[g], matrix[i, g]) for i in range(n) for g in range(x.size))
        write_csv(path, ["sample_id", "x", "value"], rows)
        return
    rows = [(i, k, matrix[i, 2 * k], matrix[i, 2 * k + 1])
            for i in range(n) for k in range(matrix.shape[1] // 2)]
    write_csv(path, ["sample_id", "k", "c", "d"], rows)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), width=st.integers(1, 6),
       form=st.sampled_from(["grid", "fourier"]))
def test_samples_csv_matches_per_cell_format_and_round_trips_bits(tmp_path_factory, data, n,
                                                                   width, form):
    tmp = tmp_path_factory.mktemp("samples")
    config = make_config()
    if form == "grid":
        values = data.draw(arrays(np.float64, (n, width), elements=FINITE))
    else:
        values = data.draw(arrays(np.float64, (n, 2 * width + 2), elements=FINITE))
        values[:, 1] = 0.0  # a row's d at k = 0
    samples = SampleSet(config, form, lambda: iter([values.copy()]))
    write_samples_csv(samples, tmp / "columnar.csv")
    _reference_samples_csv(form, values, tmp / "reference.csv")
    assert (tmp / "columnar.csv").read_bytes() == (tmp / "reference.csv").read_bytes()

    back = read_samples_csv(tmp / "columnar.csv", config)
    read = sample_rows(back)
    assert read.tobytes() == values.tobytes()  # bit for bit, -0.0 and subnormals included
    write_samples_csv(back, tmp / "again.csv")
    assert (tmp / "again.csv").read_bytes() == (tmp / "columnar.csv").read_bytes()


def test_coefficient_rows_are_the_files_cd_cells_in_line_order(tmp_path):
    # a coefficient row was once c0, c_1..c_K, d_1..d_K, turned into the file's (c_k, d_k)
    # pairs on each write and back on each read
    cfg = make_config(n=5, mode_count=5, grid_points=11, seed=2, observation_form="fourier")
    write_samples_csv(sample_batch(cfg), tmp_path / "samples.csv")
    cells = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)[:, 2:]
    back = read_samples_csv(tmp_path / "samples.csv", cfg)
    assert sample_rows(back).tobytes() == cells.reshape(cfg.n, -1).tobytes()


def test_noiseless_row_is_the_cd_cells_of_the_propagated_input(tmp_path):
    cfg = make_config(mode_count=5, grid_points=11, observation_form="fourier")
    write_fourier_csv(propagate(cfg.theta, cfg.op, cfg.t0), tmp_path / "input.csv")
    cells = np.loadtxt(tmp_path / "input.csv", delimiter=",", skiprows=1)[:, 1:]
    assert model._noiseless(cfg).tobytes() == cells.ravel().tobytes()


@pytest.mark.parametrize("form", ["grid", "fourier"])
def test_samples_writer_reads_its_set_once(tmp_path, form):
    # the writer once called blocks() a second time for the width of a row: a drawn set
    # seeded a generator and drew its first block again, a read set parsed it again
    batch = sample_batch(make_config(n=3, mode_count=5, grid_points=11, observation_form=form))
    calls = []

    def blocks():
        calls.append(1)
        return batch._blocks()

    write_samples_csv(SampleSet(batch.config, form, blocks), tmp_path / "counted.csv")
    write_samples_csv(batch, tmp_path / "samples.csv")
    assert len(calls) == 1
    assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "samples.csv").read_bytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), frames=st.integers(1, 4), points=st.integers(1, 6))
def test_frames_csv_matches_per_cell_format(tmp_path_factory, data, frames, points):
    tmp = tmp_path_factory.mktemp("frames")
    times = sorted(data.draw(st.lists(FINITE.map(abs), min_size=frames, max_size=frames)))
    values = data.draw(arrays(np.float64, (frames, points), elements=FINITE))
    series = [(t, GridSignal(math.pi, row)) for t, row in zip(times, values)]
    write_frames_csv(series, tmp / "columnar.csv")
    rows = ((t, x, v) for t, grid in series for x, v in zip(grid.grid, grid.values))
    write_csv(tmp / "reference.csv", ["t", "x", "value"], rows)
    assert (tmp / "columnar.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), modes=st.integers(0, 6))
def test_fourier_and_spectrum_csv_match_per_cell_format(tmp_path_factory, data, modes):
    tmp = tmp_path_factory.mktemp("modes")
    at_zero = data.draw(FINITE)
    first, second = (data.draw(arrays(np.float64, modes, elements=FINITE)) for _ in range(2))
    reference = [(0, at_zero, 0.0)] + [(k + 1, first[k], second[k]) for k in range(modes)]

    write_fourier_csv(FourierSignal(math.pi, at_zero, first, second), tmp / "fourier.csv")
    write_csv(tmp / "fourier_reference.csv", ["k", "c", "d"], reference)
    assert (tmp / "fourier.csv").read_bytes() == (tmp / "fourier_reference.csv").read_bytes()

    write_spectrum_csv(ModeSpectrum(np.concatenate([[at_zero], first]),
                                    np.concatenate([[0.0], second])), tmp / "spectrum.csv")
    write_csv(tmp / "spectrum_reference.csv", ["k", "sigma", "omega"], reference)
    assert (tmp / "spectrum.csv").read_bytes() == (tmp / "spectrum_reference.csv").read_bytes()


def test_tables_longer_than_a_slice_match_per_cell_format(tmp_path):
    # one frame of 3 * 2**14 + 5 points and 3 * 2**13 + 5 lines of 2 values each span 4
    # slices of at most 2**14 values; edge values and every exponent range are included
    rng = np.random.default_rng(7)
    points, modes = 3 * 2**14 + 5, 3 * 2**13 + 4
    assert len(list(_block_sizes(points, 1))) == len(list(_block_sizes(modes + 1, 2))) == 4
    size = points + 2 * modes
    wide = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    wide[:len(EDGE_VALUES)] = EDGE_VALUES

    frame = GridSignal(math.pi, wide[:points])
    write_frames_csv([(0.5, frame)], tmp_path / "frames.csv")
    rows = ((0.5, x, v) for x, v in zip(frame.grid, frame.values))
    write_csv(tmp_path / "frames_reference.csv", ["t", "x", "value"], rows)

    c, d = wide[points:points + modes], wide[points + modes:]
    write_fourier_csv(FourierSignal(math.pi, -0.0, c, d), tmp_path / "fourier.csv")
    rows = [(0, -0.0, 0.0)] + [(k + 1, c[k], d[k]) for k in range(modes)]
    write_csv(tmp_path / "fourier_reference.csv", ["k", "c", "d"], rows)
    for name in ("frames", "fourier"):
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_reference.csv").read_bytes()


def test_long_table_writer_memory_does_not_grow_with_the_key(tmp_path):
    # two frames of G = 131072: a key's whole text and its G per-cell templates peaked at
    # 25 MB; slices of 2**14 values hold their templates, the grid and one slice's text
    rng = np.random.default_rng(8)
    frames = [(t, GridSignal(math.pi, rng.standard_normal(131072))) for t in (0.0, 1.0)]
    tracemalloc.start()
    try:
        write_frames_csv(frames, tmp_path / "frames.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_samples_reader_refuses_ids_that_decrease(tmp_path, capsys):
    # interleaved ids were once sorted by a whole-file parse; a streamed reader takes the
    # writer's layout, in which sample_id never decreases from one data row to the next
    path = tmp_path / "samples.csv"
    path.write_text("sample_id,x,value\n7,-3.14159,1\n-2,-3.14159,5\n7,0,2\n-2,0,6\n")
    assert main(["estimate", "--config", "ex42", "--samples", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "sample_id must not decrease" in err and "-2 follows 7 in data row 2" in err


def _grid_lines(samples: int, points: int) -> list[str]:
    """Data rows of `samples` grid samples of `points` values each, as `sample` writes them."""
    x = GridSignal(math.pi, np.zeros(points)).grid.tolist()
    return [f"{i},{x[j]!r},{i + j}\n" for i in range(samples) for j in range(points)]


@pytest.mark.parametrize("edit, message", [
    # numpy counted this row as row 3 (it skips the blank line and counts from 0)
    (lambda lines: lines[:3] + ["\n", "1,,4\n"] + lines[4:],
     "bad row: data row 4 holds a cell that is not a number: '1,,4'"),
    # and this one as row 4 (counting from 1)
    (lambda lines: lines[:3] + ["1,4\n"] + lines[4:],
     "bad row: expected 3 columns per row, found 2 in data row 4"),
    # past the first parse of 5461 lines, where numpy's count would start again
    (lambda lines: lines[:6009] + ["30,abc,1\n"] + lines[6010:],
     "bad row: data row 6010 holds a cell that is not a number: '30,abc,1'"),
], ids=["empty-cell-after-a-blank-line", "short-row", "bad-cell-in-the-second-parse"])
def test_samples_reader_names_the_data_row_of_a_bad_row(tmp_path, edit, message):
    assert next(_block_sizes(16384, 3)) == 5461
    path = tmp_path / "samples.csv"
    path.write_text("sample_id,x,value\n" + "".join(edit(_grid_lines(40, 200))))
    samples = read_samples_csv(path, make_config())
    with pytest.raises(ConfigError) as refusal:
        samples._mean()
    assert message in str(refusal.value)


def test_samples_reader_reads_a_file_of_whole_blocks_without_a_numpy_warning(tmp_path):
    # 4 * 3 * 5461 rows: three full blocks of lines, and nothing left for a fourth parse,
    # which numpy would answer with "input contained no data"
    per_parse = next(_block_sizes(16384, 3))
    cfg = make_config(theta=FourierSignal.build(math.pi, c0=1.0, cos={1: 2.0}, mode_count=1),
                      mode_count=1, grid_points=4, n=3 * per_parse, seed=6)
    batch = sample_batch(cfg)
    write_samples_csv(batch, tmp_path / "samples.csv")
    lines = (tmp_path / "samples.csv").read_text().count("\n")
    assert lines - 1 == 4 * 3 * per_parse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_samples_csv(tmp_path / "samples.csv", cfg)
        assert signal_row(back._mean()[0]).tobytes() == signal_row(batch._mean()[0]).tobytes()


def test_samples_reader_carries_samples_longer_than_a_block(tmp_path):
    # G = 6000 rows per sample, past the 5461 lines of one parse: every sample is split
    cfg = make_config(mode_count=20, grid_points=6000, n=4, seed=7)
    batch = sample_batch(cfg)
    write_samples_csv(batch, tmp_path / "samples.csv")
    back = read_samples_csv(tmp_path / "samples.csv", cfg)
    assert back.n == 4
    assert back.grid_values.tobytes() == batch.grid_values.tobytes()
    read, drawn = run_estimate(back), run_estimate(batch)
    assert read[:-1] == drawn[:-1]
    assert signal_row(read.estimate).tobytes() == signal_row(drawn.estimate).tobytes()


def test_samples_reader_joins_and_checks_each_row_of_a_long_sample_once(tmp_path, monkeypatch):
    # G = 60000 spans 11 parses of 5461 lines. Joining the carried table to each new parse,
    # and checking its ids again, handled each sample's rows about 6 times
    cfg = make_config(grid_points=60000, n=2, seed=7)
    write_samples_csv(sample_batch(cfg), tmp_path / "samples.csv")
    checked, joined = [], []
    integers, concatenate = csvio._integers, np.concatenate

    def counted_integers(path, column, *args, **kwargs):
        checked.append(column.size)
        return integers(path, column, *args, **kwargs)

    def counted_concatenate(arrays, *args, **kwargs):
        joined.append(sum(len(a) for a in arrays if np.ndim(a) == 2))
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(csvio, "_integers", counted_integers)
    monkeypatch.setattr(np, "concatenate", counted_concatenate)
    assert read_samples_csv(tmp_path / "samples.csv", cfg).n == cfg.n
    assert sum(checked) == cfg.n * cfg.grid_points
    # each row is joined once, and the start of a sample twice at most: its parse's tail
    assert sum(joined) < cfg.n * cfg.grid_points + 5461


@pytest.mark.parametrize("form", ["grid", "fourier"])
def test_samples_reader_memory_does_not_grow_with_the_sample_count(tmp_path, form):
    # G = 41 (K = 20): 8000 samples are 328,000 grid rows (14 MB) or 168,000 coefficient
    # rows (9 MB). A whole-file parse peaked at 15.9 MB and 17.4 MB on them, and at 4.0 MB
    # and 4.3 MB on 2000 samples; one parse of lines at a time peaks at 1.5 MB and 1.0 MB
    peaks = {}
    for n in (2000, 8000):
        cfg = make_config(grid_points=41, n=n, seed=n, observation_form=form)
        path = tmp_path / f"samples{n}.csv"
        write_samples_csv(sample_batch(cfg), path)
        run_estimate(read_samples_csv(path, cfg))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            run_estimate(read_samples_csv(path, cfg))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8000] < 1.1 * peaks[2000]
    assert peaks[8000] < 2e6


def test_samples_writer_memory_does_not_grow_with_the_batch(tmp_path):
    # 2000 x 200 rows: the matrix is 3.2 MB and its text about 18 MB
    batch = sample_batch(make_config(n=2000, seed=4))
    tracemalloc.start()
    try:
        write_samples_csv(batch, tmp_path / "samples.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert (tmp_path / "samples.csv").stat().st_size > 1.5e7
