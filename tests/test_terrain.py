"""Zonal elevation statistics, BFE assignment, and flood depth."""

import io
import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    assert_no_child_left,
    brute_force_zonal_means,
    cell_map,
    format_number,
    points_in_polygon,
    random_raster,
    wrap_rows,
)
from floodgrid import geodata, terrain
from floodgrid.geodata import BfeZone, ParseError, Raster, parse_ascii_grid
from floodgrid.terrain import (
    ATTRIBUTION_DTYPE,
    CellArrays,
    GridSpec,
    assign_bfe,
    build_cell_states,
    cell_states_csv,
    flood_depth,
    make_fishnet,
    zonal_mean_elevation,
)


class TestZonalMean:
    def test_constant_field(self):
        dem = Raster(10, 10, 0, 0, 2, -9999, np.full(100, 7.0))
        g = GridSpec(0, 0, 10, 2, 2)
        means = cell_map(zonal_mean_elevation(dem, g), g)
        assert set(means) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(v == 7.0 for v in means.values())

    def test_four_values_one_cell(self):
        dem = Raster(2, 2, 0, 0, 1, -9999, np.array([2.0, 4.0, 6.0, 8.0]))
        g = GridSpec(0, 0, 10, 1, 1)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {(0, 0): 5.0}

    def test_nodata_excluded(self):
        dem = Raster(2, 1, 0, 0, 1, -9999, np.array([-9999.0, 4.0]))
        g = GridSpec(0, 0, 10, 1, 1)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {(0, 0): 4.0}

    def test_all_nodata_cell_absent(self):
        dem = Raster(2, 1, 0, 0, 1, -9999, np.array([-9999.0, -9999.0]))
        g = GridSpec(0, 0, 10, 1, 1)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_treated_as_nodata(self, bad):
        values = np.arange(25.0)
        values[7] = bad
        dem = Raster(5, 5, 0, 0, 1, -9999, values)
        g = GridSpec(0, 0, 10, 1, 1)
        # the mean of the 24 finite samples 0..24 without 7
        assert cell_map(zonal_mean_elevation(dem, g), g) == {(0, 0): 293 / 24}

    def test_disjoint_extents(self):
        dem = Raster(2, 2, 1000, 1000, 1, -9999, np.arange(4.0))
        g = GridSpec(0, 0, 10, 2, 2)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {}

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dem = random_raster(rng)
            # random grid, sometimes overlapping the raster, sometimes not
            ox = dem.xllcorner + rng.uniform(-2, 1) * dem.ncols * dem.cellsize
            oy = dem.yllcorner + rng.uniform(-2, 1) * dem.nrows * dem.cellsize
            g = GridSpec(ox, oy, float(rng.uniform(0.5, 4) * dem.cellsize),
                         int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            assert cell_map(zonal_mean_elevation(dem, g), g) == brute_force_zonal_means(dem, g)

    def test_mean_within_sample_range(self):
        rng = np.random.default_rng(37)
        dem = Raster(20, 20, 0, 0, 2, -9999, rng.uniform(0, 50, 400))
        g = GridSpec(0, 0, 8, 5, 5)
        means = cell_map(zonal_mean_elevation(dem, g), g)
        assert means
        for v in means.values():
            assert dem.values.min() <= v <= dem.values.max()


class TestZonalMeanBands:
    """The sums over fishnet-row bands equal the whole-raster oracle bit for bit."""

    def test_dem_spanning_many_bands(self):
        rng = np.random.default_rng(53)
        nrows, ncols = 700, 800
        values = rng.uniform(-50, 50, nrows * ncols)
        values[rng.random(values.shape) < 0.05] = -9999.0
        dem = Raster(ncols, nrows, 0, 0, 1.5, -9999, values)
        # Both grids overlap all 800 DEM columns and 660-700 DEM rows, and
        # stick out past the raster's edges.
        for g in [  # ~23 samples per cell, so a changed summation order would show
                  GridSpec(-40.0, 60.0, 7.3, 170, 150),
                  # cells narrower than a DEM cell: some fishnet rows get no samples
                  GridSpec(-3.0, -3.0, 1.2, 1000, 900)]:
            means = zonal_mean_elevation(dem, g)
            assert cell_map(means, g) == brute_force_zonal_means(dem, g)

    def test_random_grids_match_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(90):
            nrows, ncols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            values = rng.uniform(-1e4, 1e4, nrows * ncols)
            values[rng.random(values.shape) < 0.1] = -9999.0
            cs = float(rng.uniform(0.5, 20))
            dem = Raster(ncols, nrows, float(rng.uniform(-1e3, 1e3)),
                         float(rng.uniform(-1e3, 1e3)), cs, -9999, values)
            ox = dem.xllcorner + rng.uniform(-1, 1) * ncols * cs
            oy = dem.yllcorner + rng.uniform(-1, 1) * nrows * cs
            g = GridSpec(ox, oy, float(rng.uniform(0.3, 6) * cs),
                         int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            assert cell_map(zonal_mean_elevation(dem, g), g) == brute_force_zonal_means(dem, g)


class TestStreamedDemMemory:
    """Streaming a DEM file into the zonal sums holds about one fishnet row
    of samples at a time, however many rows the DEM has and however its rows
    are laid out over lines."""

    NCOLS, BAND = 256, 32  # DEM columns, and DEM rows per fishnet row

    def peak_bytes(self, path, nrows, error=None):
        g = GridSpec(0.0, 0.0, float(self.BAND), self.NCOLS // self.BAND, nrows // self.BAND)
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                if error is None:
                    zonal_mean_elevation(parse_ascii_grid(fh), g)
                else:
                    with pytest.raises(ParseError, match=error):
                        zonal_mean_elevation(parse_ascii_grid(fh), g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def check_peaks(self, tmp_path, width, bad_last_token=False):
        """The bounds, for DEMs of 256 and 1024 rows with each row on lines of
        ``width`` values, and a bad token as the last one if so asked."""
        rng = np.random.default_rng(17)
        peaks = {}
        for nrows in (256, 1024):
            values = rng.integers(-500, 5000, (nrows, self.NCOLS)) / 10
            values[rng.random(values.shape) < 0.01] = -9999
            rows = [list(map(str, row)) for row in values.tolist()]
            error = None
            if bad_last_token:
                rows[-1][-1] = "x"
                error = f"line {6 + nrows}, token {self.NCOLS}: non-numeric token 'x'"
            path = tmp_path / f"dem{nrows}.asc"
            path.write_text(f"ncols {self.NCOLS}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
                            "cellsize 1\nnodata_value -9999\n" + "\n".join(wrap_rows(rows, width)))
            peaks[nrows] = self.peak_bytes(path, nrows, error)
        # a few index words per DEM row (row centers and their fishnet rows)
        # may grow; a DEM row of samples is 2 KiB of float64, and of text more
        assert peaks[1024] - peaks[256] <= 64 * (1024 - 256)
        # the band loadtxt returns, its kept samples and their column indices
        # are three bands of float64, plus masks and a fixed allowance
        band = self.BAND * self.NCOLS * 8
        assert max(peaks.values()) <= 3.5 * band + 64 * 1024

    def test_peak_does_not_grow_with_the_rows(self, tmp_path):
        self.check_peaks(tmp_path, self.NCOLS)

    # 256 = 2 * 128 = 9 * 26 + 22: a row on 2 lines, or on 10 of unequal length
    @pytest.mark.parametrize("width", [128, 26], ids=["two lines a row", "ten lines a row"])
    def test_wrapped_rows_stream_too(self, tmp_path, width):
        self.check_peaks(tmp_path, width)

    def test_bad_last_token_streams_too(self, tmp_path):
        self.check_peaks(tmp_path, self.NCOLS, bad_last_token=True)


def dem_file_text(rows, end="\n", between=()):
    """An ASCII grid of ``rows`` (lists of tokens) over 0..ncols x 0..nrows, lines
    ending in ``end``, with ``between[k % len(between)]`` written after row k."""
    lines = [f"ncols {len(rows[0])}", f"nrows {len(rows)}", "xllcorner 0",
             "yllcorner 0", "cellsize 1", "nodata_value -9999"]
    for k, row in enumerate(rows):
        lines += [" ".join(row), *([between[k % len(between)]] if between else [])]
    return end.join(lines) + end


class TestSplitBody:
    """A DEM body read from a file and split between forked processes gives
    the means of one process bit for bit, and its errors word for word.
    ``forks`` (conftest) holds True per split where every process summed its
    run, False where this one summed them all after a failure."""

    @staticmethod
    def outcome(monkeypatch, path, g, workers):
        """The means' bytes with ``workers`` processes, or the ParseError text."""
        monkeypatch.setattr(geodata, "_workers", lambda: workers)
        try:
            with open(path, "rb") as fh:
                return zonal_mean_elevation(parse_ascii_grid(fh), g).tobytes()
        except ParseError as exc:
            return str(exc)
        finally:
            assert_no_child_left()

    def check(self, monkeypatch, path, g):
        """The outcome of one process, which every split must give too."""
        expected = self.outcome(monkeypatch, path, g, 1)
        for workers in (2, 3, 8):
            assert self.outcome(monkeypatch, path, g, workers) == expected
        return expected

    @staticmethod
    def tokens(rng, nrows, ncols):
        values = np.round(rng.uniform(-50, 50, (nrows, ncols)), 3).astype(str)
        values[rng.random(values.shape) < 0.1] = "-9999"
        values[rng.random(values.shape) < 0.05] = "nan"
        return values.tolist()

    @pytest.mark.parametrize("end, between", [
        ("\n", ()), ("\r\n", ()), ("\n", ("", " \t", "\x0c\n")), ("\r\n", ("", "   ")),
    ], ids=["lf", "crlf", "blank lines", "crlf and blank lines"])
    @pytest.mark.parametrize("cell, bands", [(9.0, 1), (5.0, 2), (1.0, 9)])
    def test_means_match_one_process(self, tmp_path, monkeypatch, forks, end, between,
                                     cell, bands):
        rng = np.random.default_rng([len(end), len(between), bands])
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(self.tokens(rng, 9, 7), end, between), newline="")
        g = make_fishnet((0.0, 0.0, 7.0, 9.0), cell)
        assert g.n_rows == bands
        means = self.check(monkeypatch, path, g)
        assert np.isnan(np.frombuffer(means)).sum() < g.n_cells
        # one band stays in this process; else every split sums its runs
        assert forks == ([] if bands == 1 else [True] * 3)

    @pytest.mark.parametrize("fault, expected", [
        ("bad token in the last row", "line 19, token 4: non-numeric token 'x'"),
        ("bad token in the first row", "line 7, token 1: non-numeric token 'x'"),
        ("trailing row", "value count mismatch: expected 35, got 40"),
        ("short body", "value count mismatch: expected 35, got 30"),
        ("wrapped row", None),
        ("float()-only token in the last row", None),
    ])
    def test_fault_in_a_run_is_that_of_one_process(self, tmp_path, monkeypatch, forks,
                                                   fault, expected):
        rows = self.tokens(np.random.default_rng(4), 7, 5)
        if fault == "bad token in the last row":
            rows[-1][3] = "x"
        elif fault == "bad token in the first row":
            rows[0][0] = "x"
        elif fault == "trailing row":
            rows.append(rows[0])
        elif fault == "short body":
            rows.pop()
        elif fault == "wrapped row":
            rows[5:6] = [rows[5][:2], rows[5][2:]]
        else:
            rows[-1][0] = "1_0"
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(rows, between=("", " ")).replace(
            f"nrows {len(rows)}", "nrows 7"))
        g = make_fishnet((0.0, 0.0, 5.0, 7.0), 1.0)  # a band per row; a child reads the last
        got = self.check(monkeypatch, path, g)
        assert got == expected if expected else isinstance(got, bytes)
        assert forks == [False] * 3  # a run failed, so this process read them all

    @pytest.mark.parametrize("width, per_row", [(14, True), (3, True), (10, False)],
                             ids=["two lines a row", "ten lines a row", "ten values a line"])
    def test_wrapped_rows_give_the_means_of_one_row_a_line(self, tmp_path, monkeypatch, forks,
                                                           width, per_row):
        rows = self.tokens(np.random.default_rng(width), 9, 28)  # 28 = 9 * 3 + 1
        path, plain = tmp_path / "dem.asc", tmp_path / "plain.asc"
        plain.write_text(dem_file_text(rows))
        lines = dem_file_text(rows).splitlines()
        path.write_text("\n".join(lines[:6] + wrap_rows(rows, width, per_row)) + "\n")
        assert parse_ascii_grid(path.read_text()) == parse_ascii_grid(plain.read_text())
        g = make_fishnet((0.0, 0.0, 28.0, 9.0), 2.0)
        expected = self.outcome(monkeypatch, plain, g, 1)
        assert self.check(monkeypatch, path, g) == expected
        assert forks == [False] * 3  # a line is no row, so this process read them all

    def test_a_part_whose_lines_are_not_its_rows_is_no_part(self, tmp_path, monkeypatch, forks):
        # Only row 0 is wrapped. The second part skips as many lines as the
        # first has rows, so it reads each of its bands a row early, and only
        # its last check sees it: a part that fell back would keep those bands.
        rows = self.tokens(np.random.default_rng(12), 8, 6)
        lines = dem_file_text(rows).splitlines()
        path = tmp_path / "dem.asc"
        path.write_text("\n".join(lines[:6] + wrap_rows(rows[:1], 4) + lines[7:]) + "\n")
        g = make_fishnet((0.0, 0.0, 6.0, 8.0), 1.0)  # a band per row
        expected = self.outcome(monkeypatch, path, g, 1)
        assert self.outcome(monkeypatch, path, g, 2) == expected
        assert forks == [False]

    def test_rows_on_the_line_of_the_last_header_line(self, tmp_path, monkeypatch, forks):
        rows = self.tokens(np.random.default_rng(11), 4, 3)
        head = "\r".join(dem_file_text(rows).splitlines()[:6]) + "\r"  # one line to LF
        path = tmp_path / "dem.asc"
        g = make_fishnet((0.0, 0.0, 3.0, 4.0), 1.0)
        # the body starts after the header's last line break, not after its LF
        path.write_text(head + "x\n" + "\n".join(map(" ".join, rows)) + "\n", newline="")
        assert self.check(monkeypatch, path, g) == "line 7, token 1: non-numeric token 'x'"
        path.write_text(head + "\n".join(map(" ".join, rows)) + "\n", newline="")
        assert isinstance(self.check(monkeypatch, path, g), bytes)
        assert forks == [False] * 3 + [True] * 3

    def test_a_child_that_dies_is_a_failed_run(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(self.tokens(np.random.default_rng(5), 6, 4)))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)
        expected = self.outcome(monkeypatch, path, g, 1)
        parent, data_mask = os.getpid(), terrain.data_mask

        def die_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return data_mask(*args)
        monkeypatch.setattr(terrain, "data_mask", die_in_child)
        assert self.outcome(monkeypatch, path, g, 3) == expected
        assert forks == [False]

    def test_failed_fork_reaps_the_children_forked(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(self.tokens(np.random.default_rng(6), 6, 4)))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)
        expected = self.outcome(monkeypatch, path, g, 1)
        fork, calls = os.fork, []

        def fork_once():
            calls.append(1)
            if len(calls) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()
        monkeypatch.setattr(os, "fork", fork_once)
        assert self.outcome(monkeypatch, path, g, 4) == expected
        assert len(calls) == 2 and forks == [False]

    def test_interrupt_stops_every_child(self, tmp_path, monkeypatch):
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(self.tokens(np.random.default_rng(7), 6, 4)))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)
        parent = os.getpid()

        def interrupt_here(*args):  # while the children take their time
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
        monkeypatch.setattr(terrain, "data_mask", interrupt_here)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self.outcome(monkeypatch, path, g, 3)
        assert time.perf_counter() - t0 < 30

    def test_children_reaped_by_the_system(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(self.tokens(np.random.default_rng(10), 6, 4)))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)
        expected = self.outcome(monkeypatch, path, g, 1)
        handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert self.outcome(monkeypatch, path, g, 4) == expected
        finally:
            signal.signal(signal.SIGCHLD, handler)
        assert forks == [False]  # no exit status to read

    def test_replaced_file_is_read_from_the_open_one(self, tmp_path, monkeypatch, forks):
        path, other = tmp_path / "dem.asc", tmp_path / "other.asc"
        rng = np.random.default_rng(8)
        path.write_text(dem_file_text(self.tokens(rng, 6, 4)))
        other.write_text(dem_file_text(self.tokens(rng, 6, 4)))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)
        expected = self.outcome(monkeypatch, path, g, 1)
        monkeypatch.setattr(geodata, "_workers", lambda: 3)
        with open(path, "rb") as fh:
            dem = parse_ascii_grid(fh)
            os.replace(other, path)
            assert zonal_mean_elevation(dem, g).tobytes() == expected
        assert_no_child_left()
        assert forks == [False]

    def test_closed_file_is_one_error_at_any_count(self, tmp_path, monkeypatch, forks):
        # once the file is closed, no process may read the body anew by its path
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(self.tokens(np.random.default_rng(10), 6, 4)))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)  # a band per row
        errors = []
        for workers in (1, 3):
            monkeypatch.setattr(geodata, "_workers", lambda: workers)
            with open(path, "rb") as fh:
                dem = parse_ascii_grid(fh)
            with pytest.raises(ValueError) as exc:
                zonal_mean_elevation(dem, g)
            errors.append(str(exc.value))
            assert_no_child_left()
        assert errors == ["seek of closed file"] * 2
        assert forks == []

    def test_text_and_unnamed_sources_stay_in_one_process(self, tmp_path, monkeypatch, forks):
        text = dem_file_text(self.tokens(np.random.default_rng(9), 6, 4))
        g = make_fishnet((0.0, 0.0, 4.0, 6.0), 1.0)
        monkeypatch.setattr(geodata, "_workers", lambda: 3)
        for dem in (parse_ascii_grid(text), parse_ascii_grid(io.BytesIO(text.encode()))):
            assert dem.body is None
            zonal_mean_elevation(dem, g)
        assert forks == []


def whole_band_means(dem, g):
    """Zonal means with one bincount per whole fishnet band of DEM rows: the
    order of the additions before the bands were read in parts."""
    jj = terrain.col_of(g, dem.xllcorner + (np.arange(dem.ncols) + 0.5) * dem.cellsize)
    ii = terrain.row_of(g, dem.yllcorner + (dem.nrows - np.arange(dem.nrows) - 0.5)
                        * dem.cellsize)
    sums, counts = np.zeros(g.n_cells), np.zeros(g.n_cells)
    for i in set(ii[ii >= 0].tolist()):
        block = dem.values[ii == i][:, jj >= 0]
        ok = geodata.data_mask(block, dem.nodata_value)
        flat = np.broadcast_to(jj[jj >= 0], block.shape)[ok]
        row = slice(i * g.n_cols, (i + 1) * g.n_cols)
        sums[row] = np.bincount(flat, weights=block[ok], minlength=g.n_cols)
        counts[row] = np.bincount(flat, minlength=g.n_cols)
    return np.divide(sums, counts, out=np.full(g.n_cells, np.nan), where=counts > 0)


class TestZonalMeanParts:
    """A fishnet band read in parts of at most BATCH_ENTRIES // ncols DEM rows
    gives the means of one bincount over the whole band, bit for bit, in
    memory, streamed in one process and split between processes."""

    NROWS, NCOLS, STEP = 40, 23, 3  # DEM rows and columns, DEM rows per part

    def dem_values(self):
        rng = np.random.default_rng(26)
        # magnitudes from 1 to 1e7, so another order of the additions would show
        values = rng.uniform(-1, 1, (self.NROWS, self.NCOLS)) * 10.0 ** rng.integers(0, 8, (
            self.NROWS, self.NCOLS))
        for bad in (-9999.0, np.nan, np.inf, -np.inf, -0.0):
            values[rng.random(values.shape) < 0.04] = bad
        values[:7, :4] = -0.0  # whole cells of -0.0, some with NODATA
        values[2, 1] = -9999.0
        return values

    # cells of 2 or 3 DEM rows are read in one part, of 6 in k = 2, of 7 in k + 1 = 3
    @pytest.mark.parametrize("rows", [2, 3, 6, 7])
    def test_parts_give_the_means_of_whole_bands(self, tmp_path, monkeypatch, forks, rows):
        values = self.dem_values()
        dem = Raster(self.NCOLS, self.NROWS, 0.0, 0.0, 1.0, -9999.0, values)
        # the grid sticks out of the DEM on every side, and its rows are not the DEM's
        g = GridSpec(-1.0, -2.5, float(rows), math.ceil(25 / rows), math.ceil(45 / rows))
        expected = whole_band_means(dem, g).tobytes()
        monkeypatch.setattr(terrain, "BATCH_ENTRIES", self.STEP * self.NCOLS)

        parts, bands = [], Raster.bands
        monkeypatch.setattr(Raster, "bands", lambda r, edges: parts.append(edges) or bands(r, edges))
        assert zonal_mean_elevation(dem, g).tobytes() == expected
        (edges,) = parts
        assert max(np.diff(edges)) == min(rows, self.STEP)

        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text([list(map(repr, row)) for row in values.tolist()]))
        for workers in (1, 3):
            monkeypatch.setattr(geodata, "_workers", lambda: workers)
            with open(path, "rb") as fh:
                assert zonal_mean_elevation(parse_ascii_grid(fh), g).tobytes() == expected
            assert_no_child_left()
        assert forks == [True]


class TestPartMemory:
    """The zonal pass holds one part of at most BATCH_ENTRIES // ncols DEM
    rows at a time, so its peak does not grow with the cell size; cells.csv
    spells BATCH_ENTRIES // 16 cells at a time, so its peak does not grow
    with the grid."""

    def test_peak_does_not_grow_with_the_cell_size(self, tmp_path, monkeypatch):
        ncols, nrows = 1024, 100
        rng = np.random.default_rng(50)
        path = tmp_path / "dem.asc"
        path.write_text(dem_file_text(np.round(rng.uniform(-50, 50, (nrows, ncols)), 2)
                                      .astype(str).tolist()))
        monkeypatch.setattr(terrain, "BATCH_ENTRIES", 2 * ncols)  # parts of two DEM rows
        monkeypatch.setattr(geodata, "_workers", lambda: 1)
        peaks = {}
        for rows in (2, 50):
            # two cells across, so the per-cell arrays stay small and what is read shows
            g = GridSpec(0.0, 0.0, float(rows), 2, nrows // rows)
            tracemalloc.start()
            try:
                with open(path, "rb") as fh:
                    zonal_mean_elevation(parse_ascii_grid(fh), g)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a band of 50 DEM rows is 400 KiB of float64; two rows are 16 KiB
        assert abs(peaks[50] - peaks[2]) <= 64 * 1024

    def test_cells_csv_peak_does_not_grow_with_the_grid(self):
        part = terrain.BATCH_ENTRIES // 16
        rng = np.random.default_rng(51)
        peaks = {}
        for parts in (2, 8):
            g = GridSpec(0.0, 0.0, 10.0, 64, parts * part // 64)
            n = g.n_cells
            states = CellArrays(np.where(rng.random(n) < 0.2, np.nan, rng.uniform(0, 60, n)),
                                np.round(rng.uniform(2, 9, n), 1), rng.uniform(0, 1e6, n),
                                rng.uniform(0, 100, n))
            tracemalloc.start()
            try:
                assert sum(map(len, cell_states_csv(g, states))) > 40 * n
                peaks[parts] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a part spelled holds some 150 bytes a cell; six parts more would add 3.7 MB
        assert peaks[2] > 100 * part
        assert abs(peaks[8] - peaks[2]) <= 64 * 1024


class TestAssignBfe:
    FULL = BfeZone(rings=[[(0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (0.0, 30.0)]], static_bfe=9.0)

    def test_whole_grid_zone(self):
        g = GridSpec(0, 0, 10, 3, 3)
        bfes = cell_map(assign_bfe(g, [self.FULL]), g)
        assert len(bfes) == 9
        assert all(v == 9.0 for v in bfes.values())

    def test_overflowing_crossing_is_infinite_and_silent(self):
        # the edge to (1e308, 40) crosses y = 10 at x = 2.5e307, but the
        # product (x2 - x1) * (y - y1) overflows first: an infinite crossing
        # still lies east of every centroid, and no warning is raised
        far = BfeZone(rings=[[(0.0, 0.0), (40.0, 0.0), (1e308, 40.0), (0.0, 40.0)]],
                      static_bfe=8.0)
        assert assign_bfe(GridSpec(0, 0, 20, 2, 2), [far]).tolist() == [8.0] * 4

    def test_outside_zone_absent(self):
        g = GridSpec(0, 0, 10, 3, 3)
        west = BfeZone(rings=[[(0.0, 0.0), (15.0, 0.0), (15.0, 30.0), (0.0, 30.0)]],
                       static_bfe=4.0)
        bfes = cell_map(assign_bfe(g, [west]), g)
        # only the first column of centroids (x = 5) falls inside
        assert set(bfes) == {(0, 0), (1, 0), (2, 0)}

    def test_first_zone_wins_overlap(self):
        g = GridSpec(0, 0, 10, 3, 3)
        other = BfeZone(rings=self.FULL.rings, static_bfe=2.0)
        bfes = cell_map(assign_bfe(g, [self.FULL, other]), g)
        assert all(v == 9.0 for v in bfes.values())
        bfes = cell_map(assign_bfe(g, [other, self.FULL]), g)
        assert all(v == 2.0 for v in bfes.values())

    def test_no_zones(self):
        g = GridSpec(0, 0, 10, 2, 2)
        assert cell_map(assign_bfe(g, []), g) == {}


def brute_force_bfe(g: GridSpec, zones) -> np.ndarray:
    """Every centroid against every edge of each zone in turn, first zone
    winning: the oracle for the scanline in assign_bfe."""
    cx = g.origin_x + (np.arange(g.n_cols) + 0.5) * g.cell_size
    cy = g.origin_y + (np.arange(g.n_rows) + 0.5) * g.cell_size
    xs = np.broadcast_to(cx[None, :], (g.n_rows, g.n_cols)).ravel()
    ys = np.broadcast_to(cy[:, None], (g.n_rows, g.n_cols)).ravel()
    bfe = np.full(g.n_cells, np.nan)
    unassigned = np.ones(g.n_cells, dtype=bool)
    for zone in zones:
        hit = points_in_polygon(xs, ys, zone.rings) & unassigned
        bfe[hit] = zone.static_bfe
        unassigned &= ~hit
    return bfe


def star_ring(rng, cx, cy, r_lo, r_hi, n):
    """A star-shaped ring about (cx, cy): n vertices at sorted random angles."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    radii = rng.uniform(r_lo, r_hi, n)
    return np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])


class TestAssignBfeScanline:
    """assign_bfe must equal the brute-force even-odd oracle cell for cell."""

    def check(self, g, zones):
        got = assign_bfe(g, zones)
        assert np.array_equal(got, brute_force_bfe(g, zones), equal_nan=True)
        return got

    @pytest.mark.parametrize("seed", range(8))
    def test_random_star_zones(self, seed):
        rng = np.random.default_rng(seed)
        g = GridSpec(float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)),
                     float(rng.uniform(0.5, 5)),
                     int(rng.integers(5, 60)), int(rng.integers(5, 40)))
        zones = []
        for k in range(int(rng.integers(1, 12))):
            # centers up to half a grid beyond each side: zones partly or wholly outside
            cx = g.origin_x + rng.uniform(-0.5, 1.5) * g.n_cols * g.cell_size
            cy = g.origin_y + rng.uniform(-0.5, 1.5) * g.n_rows * g.cell_size
            r = rng.uniform(1, 15) * g.cell_size
            rings = [star_ring(rng, cx, cy, 0.6 * r, r, int(rng.integers(3, 48)))]
            for _ in range(int(rng.integers(0, 3))):  # holes, possibly overlapping
                hx, hy = cx + rng.uniform(-0.2, 0.2) * r, cy + rng.uniform(-0.2, 0.2) * r
                rings.append(star_ring(rng, hx, hy, 0.05 * r, 0.35 * r, int(rng.integers(3, 12))))
            zones.append(BfeZone(rings=rings, static_bfe=float(k)))
        self.check(g, zones)

    @pytest.mark.parametrize("seed", range(6))
    def test_vertices_and_edges_on_centroids(self, seed):
        # integer vertices on 2-unit cells, whose centroids sit on odd
        # integers: vertices and horizontal and vertical edges fall exactly
        # on centroid rows and columns
        rng = np.random.default_rng(100 + seed)
        g = GridSpec(0.0, 0.0, 2.0, 20, 15)
        zones = []
        for k in range(10):
            n = int(rng.integers(3, 12))
            ring = rng.integers(-4, 46, (n, 2)).astype(float)
            ring[:, 1] = np.clip(ring[:, 1], -4, 34)
            if rng.random() < 0.5:  # axis-aligned box with its edges on centroids
                x0, y0 = rng.integers(-2, 20, 2) * 2 + 1.0
                w, h = rng.integers(1, 10, 2) * 2.0
                ring = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
            zones.append(BfeZone(rings=[ring], static_bfe=float(k)))
        self.check(g, zones)

    def test_overlapping_zones_first_wins(self):
        g = GridSpec(0.0, 0.0, 1.0, 30, 30)
        rng = np.random.default_rng(7)
        rings = [star_ring(rng, 15, 15, 6, 12, 30) for _ in range(4)]
        zones = [BfeZone(rings=[ring], static_bfe=float(k)) for k, ring in enumerate(rings)]
        got = self.check(g, zones)
        assert set(got[~np.isnan(got)].tolist()) == {0.0, 1.0, 2.0, 3.0}
        backwards = self.check(g, zones[::-1])
        both = ~np.isnan(got)
        assert not np.array_equal(got[both], backwards[both])

    def test_zone_wholly_outside_grid(self):
        g = GridSpec(0.0, 0.0, 1.0, 10, 10)
        far = BfeZone(rings=[[(20.0, 0.0), (30.0, 0.0), (30.0, 10.0)]], static_bfe=1.0)
        below = BfeZone(rings=[[(0.0, -9.0), (10.0, -9.0), (10.0, 0.5)]], static_bfe=2.0)
        got = self.check(g, [far, below])
        assert np.isnan(got).all()

    def test_rings_as_arrays_or_tuples(self):
        g = GridSpec(0.0, 0.0, 1.0, 8, 8)
        outer = [(0.5, 0.5), (7.5, 0.5), (7.5, 7.5), (0.5, 7.5)]
        hole = [(2.5, 2.5), (5.5, 2.5), (5.5, 5.5), (2.5, 5.5)]
        lists = assign_bfe(g, [BfeZone(rings=[outer, hole], static_bfe=3.0)])
        arrays = assign_bfe(g, [BfeZone(rings=[np.array(outer), np.array(hole)],
                                        static_bfe=3.0)])
        assert np.array_equal(lists, arrays, equal_nan=True)
        assert np.isnan(cell_map(lists, g).get((4, 4), np.nan))
        assert cell_map(lists, g)[(1, 1)] == 3.0

    def test_overflowing_crossings(self):
        # x2 - x1 overflows: a crossing on a vertex row is inf * 0 = NaN and
        # toggles no centroid; the rows above cross at +inf and toggle all
        g = GridSpec(0.0, 0.0, 1.0, 4, 4)
        zone = BfeZone(rings=[[(-1e308, 1.5), (1e308, 5.0), (-1e308, 5.0)]], static_bfe=1.0)
        with np.errstate(over="ignore"):
            got = self.check(g, [zone])
        assert np.isnan(got[:8]).all() and (got[8:] == 1.0).all()

    @pytest.mark.parametrize("ring", [
        [(float("nan"), float("nan")), (float("nan"), 0.0), (float("nan"), 1.0)],
        [(0.0, float("nan")), (5.0, 0.2), (5.0, 5.0), (0.2, 5.0)],
        [(0.0, 0.0), (float("nan"), 3.0), (6.0, 6.0), (0.0, 6.0)],
        [(0.0, 0.0), (float("inf"), 3.0), (6.0, 6.0)],
    ])
    def test_non_finite_vertices_rejected(self, ring):
        # as parse_bfe_zones does: an edge with a NaN end would toggle nothing
        with pytest.raises(ValueError, match="ring 0 has a non-finite vertex"):
            BfeZone(rings=[ring], static_bfe=1.0)
        square = [(0.0, 0.0), (9.0, 0.0), (9.0, 9.0), (0.0, 9.0)]
        with pytest.raises(ValueError, match="ring 1 has a non-finite vertex"):
            BfeZone(rings=[square, np.array(ring)], static_bfe=1.0)

    @pytest.mark.parametrize("chunk", [1, 40, 1 << 16])
    def test_row_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(terrain, "BATCH_ENTRIES", chunk)
        rng = np.random.default_rng(chunk)
        g = GridSpec(0.0, 0.0, 1.0, 25, 30)
        zones = [BfeZone(rings=[star_ring(rng, *rng.uniform(0, 30, 2), 3, 12, 40)],
                         static_bfe=float(k)) for k in range(5)]
        self.check(g, zones)


class TestFloodDepth:
    def test_formula(self):
        assert flood_depth(10, 0, 7) == 3.0
        assert flood_depth(10, 0, 12) == -2.0
        assert flood_depth(10, 1, 10.5) == 0.5

    def test_unit_slope_in_slr(self):
        # exact on a dyadic lattice, where float addition introduces no rounding
        rng = np.random.default_rng(41)
        for _ in range(200):
            bfe, s, elev = np.round(rng.uniform(-50, 50, 3) * 4) / 4
            assert flood_depth(bfe, s + 1, elev) - flood_depth(bfe, s, elev) == 1.0

    def test_strictly_increasing_in_slr(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            bfe, s, elev = rng.uniform(-50, 50, 3)
            assert flood_depth(bfe, s + 1, elev) > flood_depth(bfe, s, elev)


class TestCellStates:
    def test_build_and_sum(self):
        g = GridSpec(0, 0, 10, 2, 2)
        # (cell, area, value): parcels a and b in cell (0, 0), a in cell (1, 1)
        attrs = np.array([(0, 50.0, 500.0), (0, 25.0, 100.0), (3, 10.0, 90.0)],
                         dtype=ATTRIBUTION_DTYPE)
        nan = np.nan
        states = build_cell_states(g, attrs, np.array([3.5, nan, nan, nan]),
                                   np.array([nan, nan, nan, 8.0]))
        for column in (states.mean_elevation, states.bfe,
                       states.exposed_value, states.exposed_area):
            assert column.shape == (4,)
        assert cell_map(states.exposed_value, g)[(0, 0)] == 600.0
        assert cell_map(states.exposed_area, g)[(0, 0)] == 75.0
        assert cell_map(states.mean_elevation, g) == {(0, 0): 3.5}
        assert cell_map(states.bfe, g) == {(1, 1): 8.0}
        assert cell_map(states.exposed_value, g)[(1, 0)] == 0.0

    @pytest.mark.parametrize("field", ["value", "area"])
    def test_overflowing_exposure_names_cell(self, field):
        g = GridSpec(0, 0, 10, 2, 2)
        attrs = np.array([(2, 1.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 1.0)], dtype=ATTRIBUTION_DTYPE)
        attrs[field][:2] = 1e308
        with pytest.raises(ValueError, match=r"exposure of cell \(1, 0\) is not finite"):
            build_cell_states(g, attrs, np.zeros(4), np.zeros(4))

    def test_csv_dump(self):
        g = GridSpec(0, 0, 10, 2, 1)
        states = build_cell_states(
            g,
            np.array([(1, 12.5, 1000.0)], dtype=ATTRIBUTION_DTYPE),
            np.array([2.5, np.nan]),
            np.array([np.nan, 6.0]),
        )
        assert list(cell_states_csv(g, states)) == [
            "row,col,mean_elevation,bfe,exposed_value,exposed_area\n",
            "0,0,2.5,,0.00,0\n",
            "0,1,,6,1000.00,12.5\n",
        ]


def per_row_cell_states_csv(g, states):
    """cells.csv as one format_number call per value writes it: the reference
    for the bulk column renderer."""
    lines = ["row,col,mean_elevation,bfe,exposed_value,exposed_area"]
    columns = zip(states.mean_elevation.tolist(), states.bfe.tolist(),
                  states.exposed_value.tolist(), states.exposed_area.tolist())
    for k, (elev, bfe, value, area) in enumerate(columns):
        elev = "" if math.isnan(elev) else format_number(elev)
        bfe = "" if math.isnan(bfe) else format_number(bfe)
        lines.append(f"{k // g.n_cols},{k % g.n_cols},{elev},{bfe},"
                     f"{value:.2f},{format_number(area)}")
    return "\n".join(lines) + "\n"


CSV_EDGES = [-0.0, 0.0, 1e16, -1e16, 2.675, 0.005, 1e-5, 123.0, -7.5, 1e22,
             9999999999999998.0, 5e-324, 1.7976931348623157e308]


class TestCellStatesCsvBytes:
    """cell_states_csv against the per-row loop it replaced, byte for byte."""

    @pytest.mark.parametrize("value", CSV_EDGES)
    def test_one_cell_grid(self, value):
        g = GridSpec(0, 0, 10, 1, 1)
        for elev, bfe in [(value, value), (np.nan, value), (value, np.nan), (np.nan, np.nan)]:
            states = CellArrays(np.array([elev]), np.array([bfe]),
                                np.array([value]), np.array([value]))
            assert "".join(cell_states_csv(g, states)) == per_row_cell_states_csv(g, states)

    @pytest.mark.parametrize("batch", [1, 5, 4096])  # cells spelled at once
    @pytest.mark.parametrize("n_rows, n_cols", [(3, 4), (7, 5), (1, 9), (12, 1)])
    def test_random_grids(self, n_rows, n_cols, batch, monkeypatch):
        monkeypatch.setattr(terrain, "BATCH_ENTRIES", 16 * batch)
        rng = np.random.default_rng([n_rows, n_cols])
        g = GridSpec(0, 0, 10, n_cols, n_rows)
        n = g.n_cells

        def column(nan_share):
            v = rng.normal(0, 10.0 ** rng.integers(-3, 18, n))
            v = np.where(rng.random(n) < 0.3, np.round(v, 2), v)
            v = np.where(rng.random(n) < 0.2, rng.choice(CSV_EDGES, n), v)
            return np.where(rng.random(n) < nan_share, np.nan, v)

        states = CellArrays(column(0.3), column(0.3), column(0.0), column(0.0))
        assert np.isnan(states.mean_elevation).any() or n < 4
        assert "".join(cell_states_csv(g, states)) == per_row_cell_states_csv(g, states)
