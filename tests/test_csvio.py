"""Columnar CSV writers and readers against the per-cell reference format."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _util import make_config
from ousignal import SampleSet, sample_batch
from ousignal.csvio import (read_samples_csv, write_fourier_csv, write_frames_csv,
                            write_samples_csv, write_spectrum_csv)
from ousignal.fourier import FourierSignal, GridSignal
from ousignal.manifest import write_csv
from ousignal.model import _signal_row
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
    k_count = (matrix.shape[1] - 1) // 2
    rows = []
    for i in range(n):
        rows.append((i, 0, matrix[i, 0], 0.0))
        rows += [(i, k, matrix[i, k], matrix[i, k_count + k]) for k in range(1, k_count + 1)]
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
        samples = SampleSet(config, etas=np.zeros(n), grid_values=values)
    else:
        values = data.draw(arrays(np.float64, (n, 2 * width + 1), elements=FINITE))
        samples = SampleSet(config, etas=np.zeros(n), fourier_coef=values)
    write_samples_csv(samples, tmp / "columnar.csv")
    _reference_samples_csv(form, values, tmp / "reference.csv")
    assert (tmp / "columnar.csv").read_bytes() == (tmp / "reference.csv").read_bytes()

    back = read_samples_csv(tmp / "columnar.csv", config)
    read = np.array([_signal_row(back.signal(i)) for i in range(back.n)])
    assert read.tobytes() == values.tobytes()  # bit for bit, -0.0 and subnormals included
    write_samples_csv(back, tmp / "again.csv")
    assert (tmp / "again.csv").read_bytes() == (tmp / "columnar.csv").read_bytes()


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


def test_samples_reader_groups_by_id_and_keeps_row_order(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("sample_id,x,value\n7,-3.14159,1\n-2,-3.14159,5\n7,0,2\n-2,0,6\n")
    back = read_samples_csv(path, make_config())
    assert back.grid_values.tolist() == [[5.0, 6.0], [1.0, 2.0]]


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
