"""IO formats: ASCII grid, parcel/BFE GeoJSON, damage curves, report CSV."""

import gc
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Feature, assert_no_child_left, parcel_rings, random_raster
from floodgrid import geodata
from floodgrid.geodata import (
    BfeZone,
    DamageCurve,
    ParcelTable,
    ParseError,
    Raster,
    data_mask,
    format_numbers,
    parse_ascii_grid,
    parse_bfe_zones,
    parse_damage_curve,
    parse_parcels,
    write_ascii_grid,
    write_report,
)
from floodgrid.terrain import GridSpec, ScenarioResult, incremental_deltas, zonal_mean_elevation

MINIMAL_GRID = (
    "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 98\nnodata_value -9999\n"
    "1 2\n3 4\n"
)


class TestForked:
    def test_fewer_than_two_parts_fork_nothing(self, monkeypatch):
        fork, forked, runs = os.fork, [], []
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        for workers, n, least in ((1, 10, 1), (4, 39, 20), (4, 0, 1)):
            monkeypatch.setattr(geodata, "_workers", lambda: workers)
            assert geodata._forked(lambda a, b: runs.append((a, b)), n, least) is None
        assert forked == [] and runs == []
        assert_no_child_left()
        # and a split forks one child per part after the first
        assert geodata._forked(lambda a, b: (a, b), 7) == [(0, 1), (1, 3), (3, 5), (5, 7)]
        assert len(forked) == 3
        assert_no_child_left()


class TestAsciiGrid:
    def test_parse_minimal(self):
        r = parse_ascii_grid(MINIMAL_GRID)
        assert (r.ncols, r.nrows) == (2, 2)
        assert (r.xllcorner, r.yllcorner, r.cellsize) == (0.0, 0.0, 98.0)
        assert r.nodata_value == -9999.0
        assert r.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_value_count_mismatch(self):
        for text, got in [
            (MINIMAL_GRID.replace("1 2\n3 4\n", "1 2 3\n"), "expected 4, got 3"),
            (MINIMAL_GRID.replace("3 4\n", "3 4 5\n6\n"), "expected 4, got 6"),
            # a header promising more values than the text can hold
            (MINIMAL_GRID.replace("ncols 2", "ncols 1000000000000"),
             "expected 2000000000000, got 4"),
        ]:
            with pytest.raises(ParseError, match=f"value count mismatch: {got}"):
                parse_ascii_grid(text)

    def test_constructor_value_count_mismatch(self):
        with pytest.raises(ValueError, match="^value count mismatch: expected 4, got 3$"):
            Raster(2, 2, 0.0, 0.0, 1.0, -9999.0, np.zeros(3))

    def test_nodata_cells_masked(self):
        text = MINIMAL_GRID.replace("1 2", "-9999 2")
        r = parse_ascii_grid(text)
        assert data_mask(r.values, r.nodata_value).tolist() == [[False, True], [True, True]]

    def test_header_keys_case_insensitive(self):
        text = MINIMAL_GRID.replace("ncols", "NCOLS").replace("nodata_value", "NODATA_value")
        assert parse_ascii_grid(text).ncols == 2

    def test_duplicate_header_key(self):
        text = MINIMAL_GRID.replace("nrows 2", "ncols 2")
        with pytest.raises(ParseError, match="duplicate header key"):
            parse_ascii_grid(text)

    def test_unknown_header_key(self):
        text = MINIMAL_GRID.replace("nrows", "wrongkey")
        with pytest.raises(ParseError, match="unknown header key"):
            parse_ascii_grid(text)

    def test_non_numeric_header_token_reports_line(self):
        text = MINIMAL_GRID.replace("cellsize 98", "cellsize huge")
        with pytest.raises(ParseError, match="line 5.*non-numeric"):
            parse_ascii_grid(text)

    @pytest.mark.parametrize("line, key, token", [
        (1, "ncols", "2.0"), (2, "nrows", "inf"), (1, "ncols", "nan"), (6, "nodata_value", "x"),
    ])
    def test_non_numeric_header_field_rejected(self, line, key, token):
        # row and column counts must be integers; inf and nan are not
        lines = MINIMAL_GRID.splitlines()
        lines[line - 1] = f"{key} {token}"
        message = f"line {line}: non-numeric token '{token}' for '{key}'"
        with pytest.raises(ParseError, match=message):
            parse_ascii_grid("\n".join(lines))

    def test_huge_count_is_a_count_mismatch(self):
        text = MINIMAL_GRID.replace("ncols 2", "ncols " + "9" * 400)
        with pytest.raises(ParseError, match="value count mismatch"):
            parse_ascii_grid(text)

    @pytest.mark.parametrize("line, key, token", [
        (5, "cellsize", "inf"), (5, "cellsize", "nan"), (3, "xllcorner", "nan"),
        (4, "yllcorner", "inf"), (3, "xllcorner", "-inf"),
    ])
    def test_non_finite_header_field_rejected(self, line, key, token):
        lines = MINIMAL_GRID.splitlines()
        lines[line - 1] = f"{key} {token}"
        with pytest.raises(ParseError, match=f"line {line}: non-finite value '{token}' for '{key}'"):
            parse_ascii_grid("\n".join(lines))

    def test_overflowing_extent_rejected(self):
        text = MINIMAL_GRID.replace("cellsize 98", "cellsize 1e308")
        with pytest.raises(ParseError, match=r"raster extent \(0\.0, 0\.0, inf, inf\) is not finite"):
            parse_ascii_grid(text)

    def test_nan_nodata_value_accepted(self):
        r = parse_ascii_grid(MINIMAL_GRID.replace("nodata_value -9999", "nodata_value nan"))
        assert np.isnan(r.nodata_value)
        assert data_mask(r.values, r.nodata_value).all()

    def test_non_numeric_value_token_reports_position(self):
        text = MINIMAL_GRID.replace("3 4", "3 oops")
        with pytest.raises(ParseError, match="line 8, token 2"):
            parse_ascii_grid(text)

    def test_truncated_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_ascii_grid("ncols 2\nnrows 2\n")

    def test_nonpositive_cellsize_rejected(self):
        text = MINIMAL_GRID.replace("cellsize 98", "cellsize 0")
        with pytest.raises(ParseError, match="cellsize"):
            parse_ascii_grid(text)

    def test_write_canonical_golden(self):
        r = Raster(2, 2, 0.0, 0.0, 98.0, -9999.0, np.array([1.0, 2.0, 3.0, 4.0]))
        assert write_ascii_grid(r) == MINIMAL_GRID

    @pytest.mark.parametrize("nodata, spelled", [
        (float("nan"), "nan"), (-0.0, "-0"), (-3.4e38, "-3.4e+38")])
    def test_header_spelling(self, nodata, spelled):
        r = Raster(2, 1, 0.5, -7.0, 2.5, nodata, np.array([nodata, 1e-05]))
        assert write_ascii_grid(r).splitlines() == [
            "ncols 2", "nrows 1", "xllcorner 0.5", "yllcorner -7", "cellsize 2.5",
            f"nodata_value {spelled}", f"{spelled} 1e-05"]

    def test_nodata_serializes_as_sentinel(self):
        r = Raster(2, 1, 0.0, 0.0, 1.0, -5.0, np.array([-5.0, 2.0]))
        assert "-5 2" in write_ascii_grid(r)
        back = parse_ascii_grid(write_ascii_grid(r))
        assert data_mask(back.values, back.nodata_value).tolist() == [[False, True]]

    def test_round_trip_seeded_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = random_raster(rng)
            text = write_ascii_grid(r)
            again = parse_ascii_grid(text)
            assert again == r
            assert write_ascii_grid(again) == text

    @settings(max_examples=150, deadline=None)
    @given(
        ncols=st.integers(1, 5),
        nrows=st.integers(1, 5),
        xll=st.floats(allow_nan=False, allow_infinity=False, width=64),
        yll=st.floats(allow_nan=False, allow_infinity=False, width=64),
        cellsize=st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
        data=st.data(),
    )
    def test_round_trip_property(self, ncols, nrows, xll, yll, cellsize, data):
        values = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64) | st.just(float("nan")),
            min_size=ncols * nrows, max_size=ncols * nrows,
        ))
        r = Raster(ncols, nrows, xll, yll, cellsize, -9999.0, np.array(values, dtype=float))
        assert parse_ascii_grid(write_ascii_grid(r)) == r


def split_oracle(text):
    """An ASCII grid body's values by plain ``float()`` over ``str.split()``."""
    return [float(t) for line in text.splitlines()[6:] for t in line.split()]


def as_bits(values):
    """Float64 bit patterns, so NaN payloads, signs and -0.0 compare exactly."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


NON_FINITE = ("nan", "-nan", "NaN", "inf", "-inf", "+Infinity")
# underscores and non-ASCII digits: float() reads them, numpy's C reader does not
FLOAT_ONLY = ("1_0", "1_000.5", "\uff11\uff12", "\u0663.5")


def random_token(rng, extra=()):
    """A numeric token in one of several spellings float() accepts."""
    v = float(rng.uniform(-1e4, 1e4)) * 10.0 ** int(rng.integers(-8, 9))
    spellings = [repr(v), f"{v:.6g}", f"{v:e}", f"{v:.3E}", str(int(v)), f"+{abs(v)!r}",
                 "-0", "0.", ".5", "5.", *extra]
    return spellings[int(rng.integers(len(spellings)))]


def grid_body(rng, tokens, ncols, rewrap, messy):
    """Lay ``tokens`` out as value lines of ``ncols`` or, with ``rewrap``, of
    random lengths; ``messy`` mixes whitespace and line endings and adds
    blank lines."""
    widths = [ncols] * (len(tokens) // ncols)
    if rewrap:
        widths = []
        while sum(widths) < len(tokens):
            widths.append(int(rng.integers(1, 2 * ncols + 2)))
    seps = [" ", "  ", "\t", " \t "] if messy else [" "]
    # \x0b and \x0c end a line for str.splitlines
    ends = ["\n", "\r\n", "\r", "\x0b", "\x0c"] if messy else ["\n"]
    out, k = [], 0
    for w in widths:
        row = tokens[k:k + w]
        k += w
        line = "".join(t + str(rng.choice(seps)) for t in row[:-1]) + row[-1]
        if messy:
            line = str(rng.choice(["", " ", "\t"])) + line + str(rng.choice(["", " "]))
            if rng.random() < 0.2:
                line += str(rng.choice(ends)) + str(rng.choice(["", "   ", "\t"]))
        out.append(line + str(rng.choice(ends)))
    return "".join(out)


class TestBodyParseDifferential:
    """parse_ascii_grid agrees bit for bit with float() over str.split()."""

    @pytest.mark.parametrize("rewrap", [False, True])
    @pytest.mark.parametrize("messy", [False, True])
    @pytest.mark.parametrize("seed, extra", enumerate([(), NON_FINITE, FLOAT_ONLY]))
    def test_matches_split_oracle(self, rewrap, messy, seed, extra):
        rng = np.random.default_rng([rewrap, messy, seed])
        for _ in range(40):
            ncols, nrows = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            tokens = [random_token(rng, extra) for _ in range(ncols * nrows)]
            text = (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
                    f"cellsize 1\nnodata_value -9999\n"
                    + grid_body(rng, tokens, ncols, rewrap, messy))
            expected = split_oracle(text)
            assert len(expected) == ncols * nrows
            assert as_bits(parse_ascii_grid(text).values.ravel()) == as_bits(expected)

    @pytest.mark.parametrize("messy", [False, True])
    def test_both_parse_paths_compared(self, monkeypatch, messy):
        calls = []
        per_line = geodata._parse_values_per_line
        monkeypatch.setattr(geodata, "_parse_values_per_line",
                            lambda *a: calls.append(1) or per_line(*a))
        rng = np.random.default_rng(5)
        tokens = [random_token(rng) for _ in range(12)]
        header = "ncols 4\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata_value -9\n"
        for body, per_line_calls in [
            # rows of equal length go through loadtxt, whatever the whitespace,
            # unless a lone \r, \x0b or \x0c breaks them (messy bodies do)
            (grid_body(rng, tokens, 4, False, messy), int(messy)),
            # wrapped rows of unequal length, and a token only float() reads
            (" ".join(tokens[:5]) + "\n" + " ".join(tokens[5:]) + "\n", 1),
            (grid_body(rng, tokens[:8], 4, False, messy) + " ".join(tokens[8:11]) + " 1_0\n", 1),
        ]:
            calls.clear()
            text = header + body
            assert as_bits(parse_ascii_grid(text).values.ravel()) == as_bits(split_oracle(text))
            assert len(calls) == per_line_calls

    @pytest.mark.parametrize("body, where", [
        ("# comment\n1 2\n3 4\n", "line 7, token 1"),
        ("1 2\n# 3 4\n", "line 8, token 1"),
        ("1 2\n3 4 # note\n", "line 8, token 3"),
        ("1 2 #\n3 4\n", "line 7, token 3"),
    ])
    def test_comment_lines_rejected(self, body, where):
        text = MINIMAL_GRID.replace("1 2\n3 4\n", body)
        with pytest.raises(ParseError, match=f"{where}: non-numeric token '#'"):
            parse_ascii_grid(text)

    @pytest.mark.parametrize("body", ["", "\n\n", "  \n\t\n"])
    def test_empty_body_is_count_mismatch_without_warning(self, body):
        text = MINIMAL_GRID.replace("1 2\n3 4\n", body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="value count mismatch: expected 4, got 0"):
                parse_ascii_grid(text)


def streamed_means(path, g):
    """Zonal means with the DEM body streamed from the file, as assess reads it."""
    with open(path, "rb") as fh:
        return zonal_mean_elevation(parse_ascii_grid(fh), g)


def stream_grids(rng, ncols, nrows):
    """Fishnets over a 1-ft DEM whose rows are 1, 2 and 5 DEM rows tall, and
    one partly off the raster."""
    yield from (GridSpec(0.0, 0.0, float(h), -(-ncols // h), -(-nrows // h)) for h in (1, 2, 5))
    yield GridSpec(float(rng.uniform(-3, ncols / 2)), float(rng.uniform(-3, nrows / 2)),
                   float(rng.uniform(0.4, 3)), int(rng.integers(1, 8)), int(rng.integers(1, 8)))


class TestStreamedBody:
    """Zonal means of a DEM streamed from a binary file equal those of the
    parsed text, bit for bit, whichever way the body is written."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"loadtxt": 0, "per_line": 0}
        loadtxt, per_line = np.loadtxt, geodata._parse_values_per_line

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call
        monkeypatch.setattr(geodata.np, "loadtxt", counted("loadtxt", loadtxt))
        monkeypatch.setattr(geodata, "_parse_values_per_line", counted("per_line", per_line))
        return calls

    @pytest.mark.parametrize("rewrap", [False, True])
    @pytest.mark.parametrize("messy", [False, True])
    @pytest.mark.parametrize("seed, extra", enumerate([(), NON_FINITE, FLOAT_ONLY]))
    def test_matches_text_parse(self, tmp_path, monkeypatch, spy, rewrap, messy, seed, extra):
        rng = np.random.default_rng([rewrap, messy, seed, 9])
        path = tmp_path / "dem.asc"
        streamed = {"loadtxt": 0, "per_line": 0}
        for _ in range(12):
            ncols, nrows = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            tokens = [random_token(rng, extra) for _ in range(ncols * nrows)]
            text = (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
                    f"cellsize 1\nnodata_value -9999\n"
                    + grid_body(rng, tokens, ncols, rewrap, messy))
            path.write_bytes(text.encode())
            dem = parse_ascii_grid(text)
            for g in stream_grids(rng, ncols, nrows):
                for workers in (1, 2):  # in one process, and split where it can be
                    monkeypatch.setattr(geodata, "_workers", lambda: workers)
                    before = dict(spy)
                    got = streamed_means(path, g)
                    streamed = {k: n + spy[k] - before[k] for k, n in streamed.items()}
                    assert as_bits(got) == as_bits(zonal_mean_elevation(dem, g))
        # rows of ncols tokens numpy reads, one to a line split at LF, stay on
        # the band path; wrapped rows, rows broken by a lone \r, \x0b or \x0c
        # (messy bodies), and tokens only float() reads fall back to the
        # per-line loop
        assert streamed["loadtxt"] > 0
        assert (streamed["per_line"] > 0) == (rewrap or messy or extra == FLOAT_ONLY)

    def test_bands_are_read_again_on_a_second_pass(self, tmp_path, monkeypatch, spy):
        monkeypatch.setattr(geodata, "_workers", lambda: 1)
        rng = np.random.default_rng(13)
        tokens = [f"{v:.3f}" for v in rng.uniform(-50, 50, 6 * 9)]
        text = MINIMAL_GRID.replace("ncols 2\nnrows 2", "ncols 6\nnrows 9").replace(
            "1 2\n3 4\n", grid_body(rng, tokens, 6, False, False))
        path = tmp_path / "dem.asc"
        path.write_text(text)
        g = GridSpec(0.0, 0.0, 196.0, 3, 5)
        with open(path, "rb") as fh:
            dem = parse_ascii_grid(fh)
            first = zonal_mean_elevation(dem, g)
            assert spy["per_line"] == 0
            # from the file again, with numpy, not from rows the first pass used up
            assert as_bits(zonal_mean_elevation(dem, g)) == as_bits(first)
            assert spy["per_line"] == 0
        assert as_bits(first) == as_bits(zonal_mean_elevation(parse_ascii_grid(text), g))

    @pytest.mark.parametrize("g", [GridSpec(0.0, 0.0, 98.0, 2, 2),  # rows 2 and 3 of 3
                                   GridSpec(1e4, 1e4, 98.0, 2, 2)])  # off the raster
    def test_rows_outside_the_grid_are_read_and_checked(self, tmp_path, g):
        path = tmp_path / "dem.asc"
        three_rows = MINIMAL_GRID.replace("nrows 2", "nrows 3")
        for body, message in [("1 2 x\n3 4\n5 6\n", "line 7, token 3: non-numeric token 'x'"),
                              ("1 2\n3 4\n5 6\n7\n", "value count mismatch: expected 6, got 7")]:
            path.write_text(three_rows.replace("1 2\n3 4\n", body))
            with pytest.raises(ParseError, match=message):
                streamed_means(path, g)
        path.write_text(three_rows.replace("1 2\n3 4\n", "1 2\n3 4\n5 6\n\n \n"))
        expected = zonal_mean_elevation(parse_ascii_grid(path.read_text()), g)
        assert as_bits(streamed_means(path, g)) == as_bits(expected)


    def test_ascii_separator_lines_and_stray_bytes(self, tmp_path, spy):
        path = tmp_path / "dem.asc"
        g = GridSpec(0.0, 0.0, 98.0, 2, 2)
        # \x1c-\x1f are whitespace to str.split() and numpy: a line of them is blank
        path.write_bytes(MINIMAL_GRID.replace("3 4", "\x1c\x1d \x1f\n3\x1e4").encode())
        assert as_bits(streamed_means(path, g)) == as_bits(
            zonal_mean_elevation(parse_ascii_grid(MINIMAL_GRID), g))
        assert spy["per_line"] == 0
        # a byte that is not UTF-8 is the decode error the text read gives, not a separator
        path.write_bytes(MINIMAL_GRID.replace("3 4", "3\xa04").encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError):
            streamed_means(path, g)

    @pytest.mark.parametrize("rewrap", [False, True])
    def test_decode_error_deep_in_the_body_keeps_its_offset(self, tmp_path, rewrap):
        rng = np.random.default_rng(3)
        tokens = [f"{v:.3f}" for v in rng.uniform(-50, 50, 6 * 40)]
        data = (MINIMAL_GRID.replace("ncols 2\nnrows 2", "ncols 6\nnrows 40")
                .replace("1 2\n3 4\n", grid_body(rng, tokens, 6, rewrap, False))).encode()
        at = data.index(b" ", len(data) * 3 // 4)
        path = tmp_path / "dem.asc"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(UnicodeDecodeError) as info:
            streamed_means(path, GridSpec(0.0, 0.0, 98.0, 6, 40))
        # the offset of exc.object in the file, if not 0, is its ``offset``
        exc = info.value
        assert (getattr(exc, "offset", 0) + exc.start, exc.object[exc.start]) == (at, 0xff)

    def test_decode_error_comes_before_a_bad_token(self, tmp_path):
        # as in a read of the whole text, whichever comes first in the file
        path = tmp_path / "dem.asc"
        three_rows = MINIMAL_GRID.replace("nrows 2", "nrows 3")
        path.write_bytes(three_rows.replace("1 2\n3 4\n", "1 x\n3 4\n5 \xff\n").encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            streamed_means(path, GridSpec(0.0, 0.0, 98.0, 2, 3))


SQUARE_FEATURE = {
    "type": "Feature",
    "geometry": {
        "type": "Polygon",
        "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]],
    },
    "properties": {"parcel_id": "p1", "current_assessment": 100000, "land_area": 100},
}


def fc(*features):
    return json.dumps({"type": "FeatureCollection", "features": list(features)})


class TestParcels:
    def test_single_square(self):
        table = parse_parcels(fc(SQUARE_FEATURE))
        assert len(table) == 1
        assert table.parcel_id.tolist() == ["p1"]
        assert table.current_assessment.tolist() == [100000.0]
        assert table.land_area.tolist() == [100.0]
        assert table.base_flood.tolist() == [0.0]
        assert table.area.tolist() == table.denominator.tolist() == [100.0]
        assert table.bbox.tolist() == [[0.0, 0.0, 10.0, 10.0]]
        # closing vertex dropped, others preserved exactly
        assert parcel_rings(table, 0) == [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]]

    def test_multipolygon_splits_with_shared_pool(self):
        feature = {
            "type": "Feature",
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [[[0, 0], [10, 0], [10, 10], [0, 10]]],
                    [[[20, 0], [30, 0], [30, 10], [20, 10]]],
                ],
            },
            "properties": {"parcel_id": "m", "current_assessment": 5000, "land_area": 200},
        }
        table = parse_parcels(fc(feature))
        assert table.parcel_id.tolist() == ["m#0", "m#1"]
        assert table.denominator.tolist() == [200.0, 200.0]
        assert table.area.tolist() == [100.0, 100.0]
        assert table.current_assessment.tolist() == [5000.0, 5000.0]
        assert table.bbox.tolist() == [[0.0, 0.0, 10.0, 10.0], [20.0, 0.0, 30.0, 10.0]]

    def test_point_geometry_rejected(self):
        bad = dict(SQUARE_FEATURE, geometry={"type": "Point", "coordinates": [0, 0]})
        with pytest.raises(ParseError, match="non-polygon geometry"):
            parse_parcels(fc(bad))

    def test_missing_property_rejected(self):
        bad = dict(SQUARE_FEATURE, properties={"parcel_id": "p1", "land_area": 1})
        with pytest.raises(ParseError, match="current_assessment"):
            parse_parcels(fc(bad))

    @pytest.mark.parametrize("name", ["current_assessment", "land_area", "base_flood"])
    @pytest.mark.parametrize("raw", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_property_rejected(self, name, raw):
        bad = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"], **{name: raw}))
        with pytest.raises(ParseError, match=f"feature 1: non-finite value .* {name!r}"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    @pytest.mark.parametrize("raw", ["abc", None, [1]])
    def test_non_numeric_base_flood_rejected(self, raw):
        bad = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"], base_flood=raw))
        with pytest.raises(ParseError,
                           match="feature 1: non-numeric value .* for property 'base_flood'"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    @pytest.mark.parametrize("name", ["current_assessment", "land_area", "base_flood"])
    @pytest.mark.parametrize("raw", [True, False])
    def test_boolean_property_rejected(self, name, raw):
        # a bool would read as 1.0 or 0.0
        bad = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"], **{name: raw}))
        with pytest.raises(ParseError,
                           match=f"^feature 1: non-numeric value {raw} for property {name!r}"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    @pytest.mark.parametrize("name", ["current_assessment", "land_area", "base_flood"])
    @pytest.mark.parametrize("raw", ["100", "1e2", "7.5", "nan"])
    def test_numeric_string_property_rejected(self, name, raw):
        # RFC 8259 has numbers for these, though float() reads the string
        bad = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"], **{name: raw}))
        with pytest.raises(ParseError, match=f"^feature 1: non-numeric value '{raw}' for "
                                             f"property {name!r} of parcel 'p1'$"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    def test_base_flood_parsed_when_present(self):
        good = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"], base_flood=7.5))
        assert parse_parcels(fc(good)).base_flood.tolist() == [7.5]

    def test_short_ring_rejected(self):
        bad = dict(SQUARE_FEATURE, geometry={
            "type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 0]]]})
        with pytest.raises(ParseError, match="< 3 vertices"):
            parse_parcels(fc(bad))

    def test_empty_ring_is_short(self):
        bad = dict(SQUARE_FEATURE, geometry={"type": "Polygon", "coordinates": [[]]})
        with pytest.raises(ParseError, match="^feature 0: parcel 'p1', ring 0: ring with < 3"):
            parse_parcels(fc(bad))

    def test_holes_parsed(self):
        feature = {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [
                    [[0, 0], [10, 0], [10, 10], [0, 10]],
                    [[4, 4], [6, 4], [6, 6], [4, 6]],
                ],
            },
            "properties": {"parcel_id": "h", "current_assessment": 1, "land_area": 96},
        }
        table = parse_parcels(fc(feature))
        assert np.diff(table.ring_offsets).tolist() == [2]
        assert np.diff(table.vertex_offsets).tolist() == [4, 4]
        assert table.area.tolist() == [96.0]

    @staticmethod
    def bad_second(**props):
        bad = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"],
                                                   parcel_id="p2", **props))
        return fc(SQUARE_FEATURE, bad)

    def test_negative_assessment_names_feature_and_parcel(self):
        with pytest.raises(ParseError, match="^feature 1: parcel 'p2': negative assessment$"):
            parse_parcels(self.bad_second(current_assessment=-1))

    def test_negative_land_area_names_feature_and_parcel(self):
        with pytest.raises(ParseError, match="^feature 1: parcel 'p2': negative land area$"):
            parse_parcels(self.bad_second(land_area=-0.5))

    def test_two_vertex_hole_names_feature_and_parcel(self):
        # three positions, but the last closes the ring: two vertices remain
        hole = [[2, 2], [3, 3], [2, 2]]
        bad = dict(SQUARE_FEATURE, geometry={
            "type": "Polygon",
            "coordinates": SQUARE_FEATURE["geometry"]["coordinates"] + [hole]})
        bad["properties"] = dict(bad["properties"], parcel_id="h")
        with pytest.raises(ParseError,
                           match=r"^feature 1: parcel 'h', ring 1: ring with < 3 vertices$"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    def test_multipolygon_member_errors_name_the_member(self):
        square = SQUARE_FEATURE["geometry"]["coordinates"]
        feature = {
            "type": "Feature",
            "geometry": {"type": "MultiPolygon",
                         "coordinates": [square, square + [[[2, 2], [3, 3], [2, 2]]]]},
            "properties": {"parcel_id": "m", "current_assessment": 5, "land_area": 9},
        }
        with pytest.raises(ParseError,
                           match=r"^feature 0: parcel 'm#1', ring 1: ring with < 3 vertices$"):
            parse_parcels(fc(feature))
        feature["properties"]["current_assessment"] = -5
        with pytest.raises(ParseError, match="^feature 0: parcel 'm#0': negative assessment$"):
            parse_parcels(fc(feature))

    @pytest.mark.parametrize("point", [[1e400, 0], [float("nan"), 0], [None, 0]])
    def test_non_finite_coordinate_rejected(self, point):
        bad = dict(SQUARE_FEATURE, geometry={
            "type": "Polygon", "coordinates": [[[0, 0], point, [10, 10], [0, 10]]]})
        with pytest.raises(ParseError,
                           match="^feature 1: parcel 'p1', ring 0: non-finite ring coordinates$"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    @pytest.mark.parametrize("ring", [[[0, 0], [1], [1, 1]], [0, 1, 2], "abcd",
                                      [[0, 0], "xy", [1, 1]], [[0, 0], [True, 0], [1, 1]],
                                      [[0, 0, False], [2, 0, 0], [1, 1, 0]],
                                      [[0, 0], ["0.5", "0"], [1, 1]], [[0, 0], [1, "1e3"], [1, 1]],
                                      [[0, 0, "5"], [2, 0, 0], [1, 1, 0]]])
    def test_malformed_coordinates_rejected(self, ring):
        bad = dict(SQUARE_FEATURE, geometry={"type": "Polygon", "coordinates": [ring]})
        with pytest.raises(ParseError,
                           match="^feature 1: parcel 'p1', ring 0: malformed ring coordinates$"):
            parse_parcels(fc(SQUARE_FEATURE, bad))

    def test_numeric_string_vertex_names_the_member_and_ring(self):
        square = SQUARE_FEATURE["geometry"]["coordinates"]
        feature = {
            "type": "Feature",
            "geometry": {"type": "MultiPolygon", "coordinates": [
                square, square + [[[2, 2], ["3", 2], [3, 3], [2, 2]]]]},
            "properties": {"parcel_id": "m", "current_assessment": 5, "land_area": 9},
        }
        with pytest.raises(ParseError, match=r"^feature 2: parcel 'm#1', ring 1: malformed ring "
                                             r"coordinates$"):
            parse_parcels(fc(SQUARE_FEATURE, SQUARE_FEATURE, feature))

    def test_first_bad_feature_wins(self):
        short = dict(SQUARE_FEATURE, geometry={
            "type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 0]]]})
        negative = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"],
                                                        land_area=-1))
        with pytest.raises(ParseError, match="^feature 1: parcel 'p1', ring 0: ring with"):
            parse_parcels(fc(SQUARE_FEATURE, short, negative))
        with pytest.raises(ParseError, match="^feature 1: parcel 'p1': negative land area"):
            parse_parcels(fc(SQUARE_FEATURE, negative, short))

    def test_positions_with_elevation_and_mixed_rings(self):
        flat = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
        raised = [[x, y, 5.0] for x, y in flat]
        for rings in ([raised], [flat, [[2, 2, 1], [4, 2, 1], [4, 4, 1]]]):
            feature = dict(SQUARE_FEATURE, geometry={"type": "Polygon", "coordinates": rings})
            table = parse_parcels(fc(feature))
            assert parcel_rings(table, 0)[0] == [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0),
                                                 (0.0, 10.0)]

    def test_rows_sorted_by_id_and_group_area_in_member_order(self):
        heights = [1 + k / 7 for k in range(12)]
        members = [[[(k, 0), (k + 1, 0), (k + 1, h), (k, h)]] for k, h in enumerate(heights)]
        table = ParcelTable([Feature("b", members[:1], 1.0), Feature("a", members, 2.0)])
        names = [f"a#{k}" for k in range(12)]
        assert table.parcel_id.tolist() == sorted(names) + ["b"]
        assert table.area.tolist() == [heights[names.index(n)] for n in sorted(names)] + [1.0]
        in_member_order = in_id_order = 0
        for h in heights:
            in_member_order += h
        for n in sorted(names):
            in_id_order += heights[names.index(n)]
        assert in_member_order != in_id_order
        assert table.denominator.tolist() == [in_member_order] * 12 + [1.0]
        assert table.current_assessment.tolist() == [2.0] * 12 + [1.0]

    def test_group_area_subtracts_each_hole_in_turn(self):
        # |outer| - h1 - h2 and |outer| - (h1 + h2) round apart; the denominator is the first
        s = 39.797
        outer = [(0, 0), (s, 0), (s, s), (0, s)]
        holes = [[(x0, 1), (x0, 2), (x1, 2), (x1, 1)] for x0, x1 in [(1, 1.07), (3, 4.417)]]
        unit = [(50, 0), (51, 0), (51, 1), (50, 1)]
        table = ParcelTable([Feature("m", [[outer, *holes], [unit]], 1.0)])
        assert table.denominator.tolist() == [1583.314209] * 2

    def test_empty_collection(self):
        table = parse_parcels(fc())
        assert len(table) == 0
        assert table.bbox.shape == (0, 4)

    def test_not_a_feature_collection(self):
        with pytest.raises(ParseError, match="FeatureCollection"):
            parse_parcels(json.dumps({"type": "Feature"}))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_parcels("{nope")

    @pytest.mark.parametrize("parse", [parse_parcels, parse_bfe_zones])
    @pytest.mark.parametrize("props", [5, [], "p1", True, False, 0])
    def test_properties_must_be_an_object(self, parse, props):
        good = dict(SQUARE_FEATURE, properties={**SQUARE_FEATURE["properties"], "static_bfe": 1})
        bad = dict(SQUARE_FEATURE, properties=props)
        with pytest.raises(ParseError, match=r"^feature 1: properties must be an object$"):
            parse(fc(good, bad))

    @pytest.mark.parametrize("parse, name", [(parse_parcels, "parcel_id"),
                                             (parse_bfe_zones, "static_bfe")])
    def test_null_properties_read_as_none(self, parse, name):
        bad = dict(SQUARE_FEATURE, properties=None)
        with pytest.raises(ParseError, match=f"^feature 0: missing required property '{name}'$"):
            parse(fc(bad))


class TestBfeZones:
    def test_parse_zone(self):
        feature = {
            "type": "Feature",
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [100, 0], [100, 100], [0, 100]]]},
            "properties": {"static_bfe": 9.5},
        }
        zones = parse_bfe_zones(fc(feature))
        assert len(zones) == 1
        assert zones[0].static_bfe == 9.5
        # the open (n, 2) vertex array of each ring, kept as parsed
        (ring,) = zones[0].rings
        assert isinstance(ring, np.ndarray)
        assert ring.tolist() == [[0, 0], [100, 0], [100, 100], [0, 100]]

    def test_static_bfe_required(self):
        feature = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1]]]},
            "properties": {},
        }
        with pytest.raises(ParseError, match="static_bfe"):
            parse_bfe_zones(fc(feature))

    @pytest.mark.parametrize("coordinates, static_bfe, message", [
        ([[[0, 0], [1, 0], [1, 1]]], True, "feature 0: non-numeric value True for property "
                                           "'static_bfe'"),
        ([[[0, 0], [1, 0], [1, 1]]], "7.5", "feature 0: non-numeric value '7.5' for property "
                                            "'static_bfe'"),
        ([[[0, 0], [1, False], [1, 1]]], 7, "feature 0, polygon 0, ring 0: malformed ring "
                                            "coordinates"),
        # numeric strings are no numbers either
        ([[[0, 0], ["0.5", "0"], [1, 1]]], 7, "feature 0, polygon 0, ring 0: malformed ring "
                                              "coordinates"),
        ([[[0, 0], [9, 0], [9, 9]], [[1, 1], [2, 1], [2, "2"]]], 7,
         "feature 0, polygon 0, ring 1: malformed ring coordinates"),
    ])
    def test_booleans_rejected(self, coordinates, static_bfe, message):
        feature = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": coordinates},
            "properties": {"static_bfe": static_bfe},
        }
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_bfe_zones(fc(feature))

    @pytest.mark.parametrize("rings, static_bfe, message", [
        ([], 1.0, "BFE zone outer ring has fewer than 3 vertices"),
        ([[(0.0, 0.0), (1.0, 0.0)]], 1.0, "BFE zone outer ring has fewer than 3 vertices"),
        ([[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]], float("nan"),
         "static_bfe must be finite, got nan"),
    ])
    def test_constructor_validates_too(self, rings, static_bfe, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BfeZone(rings=rings, static_bfe=static_bfe)

    def test_multipolygon_zone_splits_in_order(self):
        feature = {
            "type": "Feature",
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [[[0, 0], [1, 0], [1, 1]]],
                    [[[5, 5], [6, 5], [6, 6]]],
                ],
            },
            "properties": {"static_bfe": 7},
        }
        zones = parse_bfe_zones(fc(feature))
        assert len(zones) == 2
        assert all(z.static_bfe == 7.0 for z in zones)


TABLE_COLUMNS = ("x", "y", "ring_offsets", "vertex_offsets", "area", "denominator", "bbox",
                 "current_assessment", "land_area", "base_flood")
ZONE_SQUARE = dict(SQUARE_FEATURE, properties={**SQUARE_FEATURE["properties"], "static_bfe": 7.5})
# two members, the first with a hole; positions with an elevation, rings left open
HOLED_MULTI = {
    "type": "Feature",
    "properties": {"parcel_id": "m", "current_assessment": 5000, "land_area": 200,
                   "static_bfe": 3, "base_flood": 1.25},
    "geometry": {"type": "MultiPolygon", "coordinates": [
        [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], [[2, 2, 1], [4, 2, 1], [4, 4, 1]]],
        [[[20, 0], [30, 0], [30, 10], [20, 10]]]]},
}
TRIANGLE = {
    "type": "Feature",
    "properties": {"parcel_id": "t", "current_assessment": 0.5, "land_area": 1e3,
                   "static_bfe": -2, "note": {"owner": ["a", {"b": None}]}},
    "geometry": {"type": "Polygon", "coordinates": [[[1e6, 1e5], [1e6 + 3, 1e5], [1e6, 1e5 + 4]]]},
}
SHORT = dict(ZONE_SQUARE, geometry={"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 0]]]})
NEGATIVE = dict(ZONE_SQUARE, properties={**ZONE_SQUARE["properties"], "land_area": -1})
COLLECTION = {"type": "FeatureCollection", "features": [ZONE_SQUARE, HOLED_MULTI, TRIANGLE]}
# each parser with the record walk its whole-document path runs
PARSERS = ((parse_parcels, geodata._parcel_table), (parse_bfe_zones, geodata._bfe_zones))


def spaced(value, ws) -> str:
    """``value`` as JSON text with ``ws()`` before and after every key and value."""
    if isinstance(value, dict):
        parts = [f"{ws()}{json.dumps(k)}{ws()}:{ws()}{spaced(v, ws)}{ws()}"
                 for k, v in value.items()]
        return "{" + (",".join(parts) or ws()) + "}"
    if isinstance(value, list):
        return "[" + (",".join(f"{ws()}{spaced(v, ws)}{ws()}" for v in value) or ws()) + "]"
    return json.dumps(value)


def members_text(*members: str) -> str:
    """A root object of the given ``"key": value`` members, written as they are."""
    return "{" + ", ".join(members) + "}"


def features_member(*features) -> str:
    return '"features": ' + json.dumps(list(features))


TYPE = '"type": "FeatureCollection"'


class TestStreamedDecode:
    """The parsers decode a document one feature at a time, and fall back to
    decoding it whole where that could differ: the result or the error text
    is that of the whole decoded document, read by the same feature walk."""

    @pytest.fixture
    def wholes(self, monkeypatch):
        """Counts the whole-document decodes of the parsers."""
        calls, whole = [], geodata._document_features
        monkeypatch.setattr(geodata, "_document_features",
                            lambda text: calls.append(1) or whole(text))
        return calls

    @staticmethod
    def outcome(parse, text):
        """The table's id list and column bytes, or the zones' values and ring
        bytes, or the ParseError text."""
        try:
            result = parse(text)
        except ParseError as exc:
            return str(exc)
        if isinstance(result, ParcelTable):
            return [result.parcel_id.tolist()] + [getattr(result, k).tobytes()
                                                  for k in TABLE_COLUMNS]
        return [(zone.static_bfe, [ring.tobytes() for ring in zone.rings]) for zone in result]

    def check(self, texts, wholes, streamed: bool):
        """Each parser on each text gives what its whole-document path called
        directly gives, and decodes the text whole only where not ``streamed``."""
        for parse, build in PARSERS:
            for text in texts:
                expected = self.outcome(lambda t: build(geodata._document_features(t)), text)
                wholes.clear()  # of the call just made
                assert self.outcome(parse, text) == expected, text
                assert wholes == ([] if streamed else [1]), text

    def test_type_after_the_features(self, wholes):
        self.check([members_text(features_member(ZONE_SQUARE, HOLED_MULTI), TYPE)],
                   wholes, streamed=True)

    def test_other_members_hold_nested_objects(self, wholes):
        crs = {"type": "name", "properties": {"name": "EPSG:2248", "deep": [{"a": [[], {}]}]}}
        self.check([members_text('"bbox": [0, 0, 30, 10]', f'"crs": {json.dumps(crs)}', TYPE,
                                 features_member(TRIANGLE), '"name": {"features": [1]}'),
                    members_text('"feat\\u0075res": ' + json.dumps([TRIANGLE]), TYPE)],
                   wholes, streamed=True)

    @pytest.mark.parametrize("ws", ["", " ", "\t", "\n", "\r", " \t\n\r"])
    def test_whitespace_at_each_structural_position(self, wholes, ws):
        docs = [COLLECTION, {"features": [], "type": "FeatureCollection"}]
        self.check([ws + spaced(doc, lambda: ws) + ws for doc in docs], wholes, streamed=True)

    def test_mixed_whitespace(self, wholes):
        rng = np.random.default_rng(27)
        choices = ["", " ", "\t", "\n", "\r", "\r\n \t"]
        self.check([spaced(COLLECTION, lambda: choices[rng.integers(len(choices))])
                    for _ in range(20)], wholes, streamed=True)

    def test_empty_features_array(self, wholes):
        self.check([fc(), members_text('"features": [\n]', TYPE)], wholes, streamed=True)

    @pytest.mark.parametrize("text", [
        # the last of a repeated key wins, as json.loads has it
        members_text(TYPE, features_member(ZONE_SQUARE), features_member(TRIANGLE)),
        members_text('"type": "Feature"', features_member(TRIANGLE), TYPE),
        members_text(TYPE, features_member(TRIANGLE), '"type": "Feature"'),
        members_text(features_member(), TYPE, features_member(HOLED_MULTI)),
        members_text(features_member(TRIANGLE), TYPE, '"features": null'),
    ])
    def test_repeated_keys(self, wholes, text):
        self.check([text], wholes, streamed=False)

    @pytest.mark.parametrize("text", [
        "", "[]", '"FeatureCollection"', "{}", "}", members_text(TYPE),
        members_text('"type": "Feature"', features_member(TRIANGLE)),
        members_text(TYPE, '"features": {}'), members_text(TYPE, '"features": 5') + ",",
        # valid features, so only the layout can fail
        members_text(TYPE, features_member(TRIANGLE)[:-1] + ", ]"),
        members_text(TYPE, features_member(TRIANGLE)[:-1] + " " + json.dumps(TRIANGLE) + "]"),
        "{" + TYPE + ", " + features_member(TRIANGLE) + ", }", '{1: 2}', '{"type" 1}',
    ])
    def test_irregular_layouts(self, wholes, text):
        self.check([text], wholes, streamed=False)

    def test_truncation_at_every_byte(self, wholes):
        text = json.dumps(COLLECTION)
        self.check([text[:k] for k in range(len(text))], wholes, streamed=False)

    def test_nesting_past_the_recursion_limit_inside_a_feature(self, wholes):
        deep = dict(TRIANGLE, properties={**TRIANGLE["properties"], "deep": "@"})
        text = fc(ZONE_SQUARE, deep).replace('"@"', "[" * 100_000 + "]" * 100_000)
        self.check([text], wholes, streamed=False)
        assert "invalid JSON: maximum recursion depth exceeded" in self.outcome(parse_parcels, text)
        self.check([fc(ZONE_SQUARE, deep).replace('"@"', "[" * 50 + "]" * 50)], wholes,
                   streamed=True)

    @pytest.mark.parametrize("text", ["\ufeff" + fc(ZONE_SQUARE), fc(ZONE_SQUARE) + " x",
                                      fc(ZONE_SQUARE) + "{}", fc(ZONE_SQUARE) + "\n]"])
    def test_bom_and_trailing_data(self, wholes, text):
        self.check([text], wholes, streamed=False)
        assert self.outcome(parse_parcels, text).startswith("invalid JSON: ")

    def test_a_later_json_error_beats_a_bad_feature(self, wholes):
        for bad in (SHORT, NEGATIVE, {"type": "Feature"}):
            text = fc(ZONE_SQUARE, bad, TRIANGLE)[:-1]  # the root is not closed
            self.check([text], wholes, streamed=False)
            assert self.outcome(parse_parcels, text).startswith("invalid JSON: Expecting ")

    def test_a_bad_ring_beats_a_bad_property_in_a_later_batch(self, wholes, monkeypatch):
        monkeypatch.setattr(geodata, "BATCH_ENTRIES", 2 * 64)  # batches of two members
        text = fc(ZONE_SQUARE, SHORT, ZONE_SQUARE, ZONE_SQUARE, ZONE_SQUARE, NEGATIVE)
        self.check([text], wholes, streamed=False)
        assert self.outcome(parse_parcels, text) == \
            "feature 1: parcel 'p1', ring 0: ring with < 3 vertices"

    @pytest.mark.parametrize("members", [1, 2, 3])
    def test_batches_give_the_table_or_error_of_one(self, monkeypatch, members):
        # the second and fifth features need _ring's per-ring path, the others not
        good = [ZONE_SQUARE, HOLED_MULTI, TRIANGLE, ZONE_SQUARE, HOLED_MULTI, TRIANGLE]
        texts = [fc(*good), fc(*good, SHORT, NEGATIVE), fc(*good[:4], NEGATIVE, SHORT)]
        one = [self.outcome(parse_parcels, text) for text in texts]
        assert one[1:] == ["feature 6: parcel 'p1', ring 0: ring with < 3 vertices",
                           "feature 4: parcel 'p1': negative land area"]
        monkeypatch.setattr(geodata, "BATCH_ENTRIES", members * 64)
        assert [self.outcome(parse_parcels, text) for text in texts] == one


class TestParseMemory:
    """parse_parcels holds one decoded feature and one batch of rings at a time:
    what it takes beyond what ParcelTable takes for the same records held in
    memory does not grow with the feature count."""

    @staticmethod
    def transient(build, arg) -> int:
        """The traced peak of ``build(arg)`` less what its result keeps."""
        tracemalloc.start()
        try:
            build(arg)  # what it returns is still held when the memory is read
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - kept

    def test_decode_peak_does_not_grow_with_the_feature_count(self):
        def ring(k):
            x, y = k % 100 * 20.0, k // 100 * 20.0
            return [[x, y], [x + 10, y], [x + 10, y + 10], [x, y + 10], [x, y]]

        excess = {}
        for n in (2000, 8000):
            text = fc(*({"type": "Feature", "geometry": {"type": "Polygon",
                                                         "coordinates": [ring(k)]},
                         "properties": {"parcel_id": f"p{k}", "current_assessment": 1000 + k,
                                        "land_area": 100}} for k in range(n)))
            records = [Feature(f"p{k}", [[ring(k)]], 1000 + k, 100) for k in range(n)]
            excess[n] = self.transient(parse_parcels, text) - self.transient(ParcelTable, records)
        # decoded whole, 6000 more such features take about 7 MB more
        assert excess[8000] - excess[2000] <= 512 * 1024


class TestDamageCurveParsing:
    def test_two_point_curve(self):
        curve = parse_damage_curve("[[0, 0], [10, 1]]")
        assert curve.breakpoints == [(0.0, 0.0), (10.0, 1.0)]

    def test_non_increasing_depths(self):
        with pytest.raises(ParseError, match="depths strictly increasing"):
            parse_damage_curve("[[0, 0], [0, 0.5]]")

    def test_decreasing_fractions(self):
        with pytest.raises(ParseError, match="fractions nondecreasing"):
            parse_damage_curve("[[0, 0.2], [5, 0.1]]")

    def test_too_few_breakpoints(self):
        with pytest.raises(ParseError, match="at least 2"):
            parse_damage_curve("[[0, 0]]")

    def test_fraction_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_damage_curve("[[0, 0], [5, 1.5]]")

    @pytest.mark.parametrize("text", [
        "[[0, 0], [NaN, 1]]",
        "[[0, 0], [Infinity, 1]]",
        "[[-Infinity, 0], [5, 1]]",
        "[[0, 0], [5, NaN]]",
        "[[0, NaN], [5, 1]]",
    ])
    def test_non_finite_breakpoint_rejected(self, text):
        with pytest.raises(ParseError, match="must be finite"):
            parse_damage_curve(text)

    def test_booleans_rejected(self):
        with pytest.raises(ParseError,
                           match=r"^entry 0: non-numeric pair \[False, False\]$"):
            parse_damage_curve("[[false, false], [true, true]]")

    @pytest.mark.parametrize("text, pair", [('[[0, 0], ["5", 1]]', "['5', 1]"),
                                            ('[[0, 0], [5, "1"]]', "[5, '1']")])
    def test_numeric_strings_rejected(self, text, pair):
        with pytest.raises(ParseError) as exc:
            parse_damage_curve(text)
        assert str(exc.value) == f"entry 1: non-numeric pair {pair}"

    def test_constructor_validates_too(self):
        with pytest.raises(ValueError):
            DamageCurve([(0.0, 0.0)])


def table1_results():
    costs = [106302284.38, 120128690.11, 134354291.56, 148673644.61]
    areas = [49073440.0, 51916752.0, 54985504.0, 58003842.0]
    cost_d = incremental_deltas(costs)
    area_d = incremental_deltas(areas)
    return [
        ScenarioResult(slr=float(s), total_damage=c, total_flooded_area=a,
                       cost_pct_delta=cd, area_pct_delta=ad)
        for s, c, a, cd, ad in zip(range(4), costs, areas, cost_d, area_d)
    ]


class TestWriteReport:
    GOLDEN = (
        "scenario,total_flooding_usd,total_area_flooded_sqft,cost_pct_delta,area_pct_delta\n"
        "0,106302284.38,49073440,,\n"
        "1,120128690.11,51916752,13.01,5.79\n"
        "2,134354291.56,54985504,13.38,6.25\n"
        "3,148673644.61,58003842,13.47,6.15\n"
    )

    def test_table1_golden(self):
        assert write_report(table1_results()) == self.GOLDEN

    def test_single_base_row(self):
        out = write_report([ScenarioResult(slr=0.0, total_damage=10.0, total_flooded_area=5.0)])
        assert out.splitlines()[1] == "0,10.00,5,,"

    def test_unordered_rejected(self):
        results = table1_results()[::-1]
        with pytest.raises(ValueError, match="ascending"):
            write_report(results)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            write_report([])

    def test_row_count(self):
        out = write_report(table1_results())
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 4


class TestFormatNumber:
    @pytest.mark.parametrize("value,expected", [
        (98.0, "98"), (0.5, "0.5"), (-9999.0, "-9999"), (1e22, "1e+22"), (0.0, "0"),
    ])
    def test_rendering(self, value, expected):
        assert list(format_numbers([value])) == [expected]

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for v in rng.uniform(-1e8, 1e8, 500):
            assert [float(s) for s in format_numbers([v])] == [v]


@pytest.mark.parametrize("line, token", [(7, 2), (1, None)])
def test_text_with_a_lone_surrogate_is_a_parse_error(line, token):
    text = MINIMAL_GRID.replace("1 2", "1 \ud800") if token else \
        MINIMAL_GRID.replace("ncols 2", "ncols \ud800")
    where = f"line {line}, token {token}" if token else f"line {line}"
    with pytest.raises(ParseError, match=f"{where}: non-numeric token"):
        parse_ascii_grid(text)


def test_raster_parsed_from_text_keeps_no_copy_of_it():
    rng = np.random.default_rng(2)
    text = write_ascii_grid(Raster(200, 100, 0.0, 0.0, 1.0, -9999.0, rng.normal(size=(100, 200))))
    tracemalloc.start()
    try:
        dem = parse_ascii_grid(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < dem.values.nbytes + len(text) // 4


def test_streamed_write_equals_text_write():
    rng = np.random.default_rng(5)
    for _ in range(20):
        text = write_ascii_grid(random_raster(rng))
        streamed = parse_ascii_grid(io.BytesIO(text.encode()))
        assert write_ascii_grid(streamed) == text
        assert streamed == parse_ascii_grid(text)


def test_streamed_rasters_compare_by_their_samples():
    header = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata_value -9999\n"
    a, b = (parse_ascii_grid(io.BytesIO(f"{header}{body}\n".encode())) for body in ("1 2", "7 8"))
    assert a.values is None and b.values is None
    assert a != b
    assert a == parse_ascii_grid(io.BytesIO(f"{header}1 2\n".encode()))
    assert a == parse_ascii_grid(f"{header}1 2\n") != b


@pytest.mark.parametrize("ncols, nrows", [(200, 100), (500, 400)])
def test_text_parse_peak_holds_no_copy_of_the_text(ncols, nrows):
    # the UTF-8 bytes and the float64 samples (8 bytes for an 8-character
    # token such as "12.345 ") may coexist, but not a second copy of the text
    rng = np.random.default_rng(8)
    values = rng.integers(-10 ** 4, 10 ** 5, (nrows, ncols)) / 1000
    text = write_ascii_grid(Raster(ncols, nrows, 0.0, 0.0, 1.0, -9999.0, values))
    tracemalloc.start()
    try:
        parse_ascii_grid(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)
