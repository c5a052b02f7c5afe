"""IO formats: ASCII grid, parcel/BFE GeoJSON, damage curves, report CSV."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_raster
from floodgrid import geodata
from floodgrid.geodata import (
    DamageCurve,
    ParseError,
    Raster,
    data_mask,
    format_number,
    parse_ascii_grid,
    parse_bfe_zones,
    parse_damage_curve,
    parse_parcels,
    write_ascii_grid,
    write_report,
)
from floodgrid.scenario import ScenarioResult, incremental_deltas

MINIMAL_GRID = (
    "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 98\nnodata_value -9999\n"
    "1 2\n3 4\n"
)


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
            st.floats(allow_nan=False, allow_infinity=False, width=64),
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
            # rows of equal length go through loadtxt, whatever the whitespace
            (grid_body(rng, tokens, 4, False, messy), 0),
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
        parcels = parse_parcels(fc(SQUARE_FEATURE))
        assert len(parcels) == 1
        p = parcels[0]
        assert p.parcel_id == "p1"
        assert p.current_assessment == 100000.0
        assert p.land_area == 100.0
        assert p.base_flood == 0.0
        # closing vertex dropped, others preserved exactly
        assert p.outer_ring == [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]

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
        parcels = parse_parcels(fc(feature))
        assert [p.parcel_id for p in parcels] == ["m#0", "m#1"]
        assert all(p.group_area == 200.0 for p in parcels)
        assert all(p.current_assessment == 5000.0 for p in parcels)

    def test_point_geometry_rejected(self):
        bad = dict(SQUARE_FEATURE, geometry={"type": "Point", "coordinates": [0, 0]})
        with pytest.raises(ParseError, match="non-polygon geometry"):
            parse_parcels(fc(bad))

    def test_missing_property_rejected(self):
        bad = dict(SQUARE_FEATURE, properties={"parcel_id": "p1", "land_area": 1})
        with pytest.raises(ParseError, match="current_assessment"):
            parse_parcels(fc(bad))

    @pytest.mark.parametrize("name", ["current_assessment", "land_area", "base_flood"])
    @pytest.mark.parametrize("raw", [float("nan"), float("inf"), float("-inf"), "nan"])
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

    def test_base_flood_parsed_when_present(self):
        good = dict(SQUARE_FEATURE, properties=dict(SQUARE_FEATURE["properties"], base_flood="7.5"))
        assert parse_parcels(fc(good))[0].base_flood == 7.5

    def test_short_ring_rejected(self):
        bad = dict(SQUARE_FEATURE, geometry={
            "type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 0]]]})
        with pytest.raises(ParseError, match="< 3 vertices"):
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
        p = parse_parcels(fc(feature))[0]
        assert len(p.holes) == 1
        assert len(p.holes[0]) == 4

    def test_not_a_feature_collection(self):
        with pytest.raises(ParseError, match="FeatureCollection"):
            parse_parcels(json.dumps({"type": "Feature"}))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_parcels("{nope")


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

    def test_static_bfe_required(self):
        feature = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1]]]},
            "properties": {},
        }
        with pytest.raises(ParseError, match="static_bfe"):
            parse_bfe_zones(fc(feature))

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
        assert format_number(value) == expected

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for v in rng.uniform(-1e8, 1e8, 500):
            assert float(format_number(v)) == v
