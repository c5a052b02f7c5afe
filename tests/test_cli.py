"""End-to-end CLI behavior: commands, exit codes, outputs, determinism.

The assess fixture is a tilted plane (z = 0.05x) with a 98-ft fishnet over a
588x294 ft extent, one BFE-8 zone over the two western columns, and four
parcels placed so per-cell damages are hand-computable:

  cell column 0 mean elevation 2.45 ft, column 1 mean 7.35 ft
  parcel A (cell 0,0) $100k: base depth 5.55 -> $55,500 with the linear curve
  parcel B (cells 0,1 + 0,2) $200k: only (0,1) has a BFE -> $6,500
  parcel D (cell 1,0) $50k: -> $27,750;  parcel C sits outside the zone
  base totals: $89,750 damage, 28,812 sqft flooded; +$25,000 per ft of rise
"""

import contextlib
import csv
import importlib.util
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, wrap_rows
from floodgrid import cli, eda, geodata
from floodgrid.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_EMPTY_INPUT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    ConfigError,
    RunConfig,
    main,
)
from floodgrid.geodata import Raster, write_ascii_grid
from floodgrid.terrain import CellArrays, GridSpec, cell_states_csv


def rect_feature(pid, x0, y0, x1, y1, value, land=None):
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [
            [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]]},
        "properties": {"parcel_id": pid, "current_assessment": value,
                       "land_area": land if land is not None else (x1 - x0) * (y1 - y0)},
    }


@pytest.fixture
def coastal_fixture(tmp_path):
    cs = 7.0
    ncols, nrows = 84, 42
    xs = (np.arange(ncols) + 0.5) * cs
    dem = Raster(ncols, nrows, 0.0, 0.0, cs, -9999.0,
                 np.tile(0.05 * xs, (nrows, 1)))
    (tmp_path / "dem.asc").write_text(write_ascii_grid(dem))

    parcels = {"type": "FeatureCollection", "features": [
        rect_feature("A", 0, 0, 98, 98, 100_000),
        rect_feature("B", 98, 0, 294, 98, 200_000),
        rect_feature("C", 392, 196, 490, 294, 300_000),
        rect_feature("D", 0, 98, 98, 196, 50_000),
    ]}
    (tmp_path / "parcels.geojson").write_text(json.dumps(parcels))

    zone = {"type": "FeatureCollection", "features": [{
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [
            [[0, 0], [196, 0], [196, 294], [0, 294], [0, 0]]]},
        "properties": {"static_bfe": 8.0},
    }]}
    (tmp_path / "bfe.geojson").write_text(json.dumps(zone))

    (tmp_path / "curve.json").write_text("[[0, 0], [10, 1]]")

    config = {
        "dem_path": "dem.asc",
        "parcels_path": "parcels.geojson",
        "bfe_path": "bfe.geojson",
        "damage_curve_path": "curve.json",
        "cell_size": 98.0,
        "slr_list": [0, 1, 2, 3],
        "output_dir": "out",
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    return tmp_path


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestFishnetCommand:
    def test_prints_grid_json(self, capsys):
        assert main(["fishnet", "--bbox", "0,0,294,294", "--cell-size", "98"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"origin_x": 0.0, "origin_y": 0.0, "cell_size": 98.0,
                       "n_cols": 3, "n_rows": 3}

    def test_ceiling_rule(self, capsys):
        assert main(["fishnet", "--bbox", "0,0,100,100", "--cell-size", "98"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n_cols"], doc["n_rows"]) == (2, 2)

    def test_degenerate_bbox(self, capsys):
        assert main(["fishnet", "--bbox", "0,0,0,100"]) == EXIT_CONFIG_ERROR
        assert "degenerate" in capsys.readouterr().err

    def test_malformed_bbox(self, capsys):
        assert main(["fishnet", "--bbox", "1,2,3"]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("args, message", [
        (["--bbox", "0,0,inf,100", "--cell-size", "10"], "bbox must be finite"),
        (["--bbox", "0,0,100,nan", "--cell-size", "10"], "bbox must be finite"),
        (["--bbox", "0,0,100,100", "--cell-size", "1e-320"], "too many cells"),
        (["--bbox", "0,0,100,100", "--cell-size", "inf"], "positive and finite"),
        (["--bbox", "0,0,100,100", "--cell-size", "nan"], "positive and finite"),
        (["--bbox", "0,0,1e300,1e300", "--cell-size", "1"], "too many cells"),
        (["--bbox=-1e308,0,1e308,1", "--cell-size", "1"], "too many cells"),
    ])
    def test_unrepresentable_grid_is_config_error(self, capsys, args, message):
        assert main(["fishnet", *args]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


GRID = ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 98\nnodata_value -9999\n"
        "1 2\n3 4\n")


def header_line(line, text):
    lines = GRID.splitlines(keepends=True)
    lines[line - 1] = text + "\n"
    return "".join(lines)


# Every DEM error that test_geodata raises from parse_ascii_grid, and an
# extent too narrow for its cells, with the message assess gives for it
# after "DEM file <path>: ".
DEM_ERRORS = [
    (GRID.replace("1 2\n3 4\n", "1 2 3\n"), "value count mismatch: expected 4, got 3"),
    (GRID.replace("3 4\n", "3 4 5\n6\n"), "value count mismatch: expected 4, got 6"),
    (GRID.replace("ncols 2", "ncols 1000000000000"),
     "value count mismatch: expected 2000000000000, got 4"),
    (GRID.replace("ncols 2", "ncols " + "9" * 400), "value count mismatch: expected 1999"),
    *[(GRID.replace("1 2\n3 4\n", body), "value count mismatch: expected 4, got 0")
      for body in ["", "\n\n", "  \n\t\n"]],
    (GRID.replace("nrows 2", "ncols 2"), "line 2: duplicate header key 'ncols'"),
    (GRID.replace("nrows", "wrongkey"), "line 2: unknown header key 'wrongkey'"),
    *[(header_line(line, f"{key} {token}"),
       f"line {line}: non-numeric token '{token}' for '{key}'")
      for line, key, token in [(5, "cellsize", "huge"), (1, "ncols", "2.0"), (2, "nrows", "inf"),
                               (1, "ncols", "nan"), (6, "nodata_value", "x")]],
    *[(header_line(line, f"{key} {token}"), f"line {line}: non-finite value '{token}' for '{key}'")
      for line, key, token in [(5, "cellsize", "inf"), (5, "cellsize", "nan"),
                               (3, "xllcorner", "nan"), (4, "yllcorner", "inf"),
                               (3, "xllcorner", "-inf")]],
    (GRID.replace("cellsize 98", "cellsize 1e308"),
     "raster extent (0.0, 0.0, inf, inf) is not finite"),
    (GRID.replace("cellsize 98", "cellsize 0"), "cellsize must be positive, got 0.0"),
    (GRID.replace("ncols 2\nnrows 2", "ncols 0\nnrows 5").replace("1 2\n3 4\n", ""),
     "raster dimensions must be >= 1, got 0x5"),
    (GRID.replace("xllcorner 0", "xllcorner 1e20"), "degenerate bbox (1e+20, 0.0, 1e+20, 196.0)"),
    ("ncols 2\nnrows 2\n", "expected 6 header lines, file has only 2"),
    (GRID.replace("3 4", "3 oops"), "line 8, token 2: non-numeric token 'oops'"),
    *[(GRID.replace("1 2\n3 4\n", body), f"{where}: non-numeric token '#'")
      for body, where in [("# comment\n1 2\n3 4\n", "line 7, token 1"),
                          ("1 2\n# 3 4\n", "line 8, token 1"),
                          ("1 2\n3 4 # note\n", "line 8, token 3"),
                          ("1 2 #\n3 4\n", "line 7, token 3")]],
]


class TestAssessCommand:
    def run(self, fixture, *extra):
        return main(["assess", "--config", str(fixture / "run.json"), *extra])

    def test_outputs_and_hand_computed_totals(self, coastal_fixture):
        assert self.run(coastal_fixture) == EXIT_OK
        out = coastal_fixture / "out"
        names = {p.name for p in out.iterdir()}
        assert names == {"report.csv", "cells.csv", "flood_0.geojson",
                         "flood_1.geojson", "flood_2.geojson", "flood_3.geojson"}

        lines = (out / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        base = lines[1].split(",")
        assert base[0] == "0"
        assert float(base[1]) == pytest.approx(89_750.0, abs=0.01)
        assert float(base[2]) == pytest.approx(28_812.0, rel=1e-9)
        assert base[3] == "" and base[4] == ""
        one = lines[2].split(",")
        assert float(one[1]) == pytest.approx(114_750.0, abs=0.01)
        # +25,000 over 89,750 base -> 27.86%
        assert one[3] == "27.86"
        assert one[4] == "0.00"

        # 2x3 cells carry a BFE and all flood, including parcel-free ones
        doc = json.loads((out / "flood_0.geojson").read_text())
        assert len(doc["features"]) == 6

        cells = (out / "cells.csv").read_text().strip().split("\n")
        assert len(cells) == 1 + 18

    def test_reruns_byte_identical(self, coastal_fixture):
        assert self.run(coastal_fixture) == EXIT_OK
        first = read_outputs(coastal_fixture / "out")
        assert self.run(coastal_fixture) == EXIT_OK
        assert read_outputs(coastal_fixture / "out") == first

    def test_fractional_rises_name_their_files_as_the_report_spells_them(self, coastal_fixture):
        assert self.run(coastal_fixture, "--slr", "0,1e-05,0.5,2.25") == EXIT_OK
        out = coastal_fixture / "out"
        report = (out / "report.csv").read_text().splitlines()[1:]
        spelled = [line.split(",")[0] for line in report]
        assert spelled == ["0", "1e-05", "0.5", "2.25"]
        assert {p.name for p in out.iterdir()} == \
            {"report.csv", "cells.csv", *(f"flood_{s}.geojson" for s in spelled)}
        for s in spelled:
            text = (out / f"flood_{s}.geojson").read_text()
            features = json.loads(text)["features"]
            assert features and {f["properties"]["slr"] for f in features} == {float(s)}
            assert text.count(f'"slr":{json.dumps(float(s))},') == len(features)

    def test_thread_count_does_not_change_bytes(self, coastal_fixture, monkeypatch):
        split = geodata._workers
        monkeypatch.setattr(geodata, "_workers", lambda: 1)
        assert self.run(coastal_fixture) == EXIT_OK
        serial = read_outputs(coastal_fixture / "out")
        # the DEM body's three bands are split between one process per CPU
        monkeypatch.setattr(geodata, "_workers", split)
        assert self.run(coastal_fixture, "--out", str(coastal_fixture / "out2")) == EXIT_OK
        parallel = read_outputs(coastal_fixture / "out2")
        assert serial == parallel

    def test_missing_dem_names_file(self, coastal_fixture, capsys):
        (coastal_fixture / "dem.asc").unlink()
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert "dem.asc" in capsys.readouterr().err

    def test_malformed_dem_reports_position(self, coastal_fixture, capsys):
        (coastal_fixture / "dem.asc").write_text("ncols nope\n")
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize("field, value", [("cellsize", "inf"), ("xllcorner", "nan")])
    def test_non_finite_dem_header_is_parse_error(self, coastal_fixture, capsys,
                                                  field, value):
        dem = coastal_fixture / "dem.asc"
        lines = dem.read_text().splitlines(keepends=True)
        k = next(n for n, line in enumerate(lines) if line.startswith(field + " "))
        lines[k] = f"{field} {value}\n"
        dem.write_text("".join(lines))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert f"line {k + 1}: non-finite value '{value}' for '{field}'" in capsys.readouterr().err

    def test_bad_dem_token_names_file_and_position(self, coastal_fixture, capsys):
        dem = coastal_fixture / "dem.asc"
        lines = dem.read_text().splitlines(keepends=True)
        tokens = lines[7].split()
        tokens[1] = "oops"
        lines[7] = " ".join(tokens) + "\n"
        dem.write_text("".join(lines))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert (f"error: DEM file {dem}: line 8, token 2: "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, message", DEM_ERRORS)
    def test_dem_error_names_file_and_comes_first(self, coastal_fixture, capsys, text, message):
        dem = coastal_fixture / "dem.asc"
        dem.write_text(text)
        (coastal_fixture / "parcels.geojson").write_text("{broken")
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert f"error: DEM file {dem}: {message}" in err
        assert "parcels file" not in err
        assert not (coastal_fixture / "out").exists()

    @pytest.mark.parametrize("name, what", [
        ("dem.asc", "DEM"), ("parcels.geojson", "parcels"), ("bfe.geojson", "BFE zones"),
        ("curve.json", "damage curve"), ("run.json", "config")])
    def test_undecodable_input_names_file_and_offset(self, coastal_fixture, capsys, name, what):
        path = coastal_fixture / name
        data = path.read_bytes()
        path.write_bytes(data + b"\xff")
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert (f"error: {what} file {path}: not utf-8 text: byte 0xff at offset {len(data)} "
                "(invalid start byte)\n" in capsys.readouterr().err)
        assert not (coastal_fixture / "out").exists()

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\x0c"])
    def test_dem_line_breaks_and_wrapping_keep_the_bytes(self, coastal_fixture, end):
        assert self.run(coastal_fixture) == EXIT_OK
        plain = read_outputs(coastal_fixture / "out")
        dem = coastal_fixture / "dem.asc"
        lines = dem.read_text().splitlines()
        # header and rows broken by `end`, and the rows wrapped at 10 values
        body = " ".join(lines[6:]).split()
        wrapped = [" ".join(body[k:k + 10]) for k in range(0, len(body), 10)]
        dem.write_bytes(end.join(lines[:6] + wrapped).encode() + b"\n\n")
        assert self.run(coastal_fixture, "--out", str(coastal_fixture / "out2")) == EXIT_OK
        assert read_outputs(coastal_fixture / "out2") == plain

    @pytest.mark.parametrize("width, per_row", [(42, True), (9, True), (10, False)],
                             ids=["two lines a row", "ten lines a row", "ten values a line"])
    def test_wrapped_dem_keeps_the_bytes_split_and_unsplit(self, coastal_fixture, monkeypatch,
                                                          width, per_row):
        dem = coastal_fixture / "dem.asc"
        rng = np.random.default_rng(width)
        raster = Raster(84, 42, 0.0, 0.0, 7.0, -9999.0, rng.uniform(0, 12, (42, 84)).round(2))
        lines = write_ascii_grid(raster).splitlines()
        dem.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(geodata, "_workers", lambda: 1)
        assert self.run(coastal_fixture) == EXIT_OK
        plain = read_outputs(coastal_fixture / "out")
        # 84 values a row: 2 lines of 42, 10 lines of 9 or fewer, or flowed on at 10 a line
        rows = [line.split() for line in lines[6:]]
        dem.write_text("\n".join(lines[:6] + wrap_rows(rows, width, per_row)) + "\n")
        for workers in (1, 3):
            monkeypatch.setattr(geodata, "_workers", lambda: workers)
            out = coastal_fixture / f"out{workers}"
            assert self.run(coastal_fixture, "--out", str(out)) == EXIT_OK
            assert read_outputs(out) == plain
        assert_no_child_left()

    def test_undecodable_byte_deep_in_a_wrapped_dem_names_its_offset(self, coastal_fixture,
                                                                     capsys):
        dem = coastal_fixture / "dem.asc"
        lines = dem.read_text().splitlines()
        body = " ".join(lines[6:]).split()
        data = "\n".join(lines[:6] + wrap_rows([body], 10)).encode() + b"\n"
        at = data.index(b" ", len(data) * 3 // 4)
        dem.write_bytes(data[:at] + b"\xe9" + data[at + 1:])  # Latin-1 for a separator
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert (f"error: DEM file {dem}: not utf-8 text: byte 0xe9 at offset {at} "
                "(invalid continuation byte)\n" in capsys.readouterr().err)

    def test_overflowing_dem_extent_names_file(self, coastal_fixture, capsys):
        dem = coastal_fixture / "dem.asc"
        dem.write_text(dem.read_text().replace("cellsize 7\n", "cellsize 1e308\n"))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert (f"error: DEM file {dem}: raster extent (0.0, 0.0, inf, inf) is not finite"
                in capsys.readouterr().err)

    def test_non_finite_parcel_property_names_file(self, coastal_fixture, capsys):
        path = coastal_fixture / "parcels.geojson"
        doc = json.loads(path.read_text())
        doc["features"][1]["properties"]["land_area"] = float("inf")
        path.write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert (f"error: parcels file {path}: feature 1: non-finite value inf "
                f"for property 'land_area'" in capsys.readouterr().err)

    def test_bad_slr_flag_order(self, coastal_fixture, capsys):
        assert self.run(coastal_fixture, "--slr", "1,0") == EXIT_CONFIG_ERROR

    def test_slr_not_starting_at_zero(self, coastal_fixture):
        assert self.run(coastal_fixture, "--slr", "1,2") == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("flag, message", [
        ("--slr=", "slr_list must be a list of numbers, got ['']"),
        ("--out=", "output_dir must be a path, got ''"),
    ])
    def test_empty_override_is_refused(self, coastal_fixture, capsys, flag, message):
        before = sorted(coastal_fixture.rglob("*"))
        assert self.run(coastal_fixture, flag) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(coastal_fixture.rglob("*")) == before

    def test_slr_list_starting_with_a_minus_sign_is_one_argument(self, coastal_fixture):
        assert self.run(coastal_fixture, "--slr=-0,1") == EXIT_OK
        assert sorted(p.name for p in (coastal_fixture / "out").glob("flood_*")) \
            == ["flood_0.geojson", "flood_1.geojson"]

    def test_non_finite_assessment_is_parse_error(self, coastal_fixture, capsys):
        doc = json.loads((coastal_fixture / "parcels.geojson").read_text())
        doc["features"][2]["properties"]["current_assessment"] = float("nan")
        (coastal_fixture / "parcels.geojson").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert "feature 2: non-finite value" in capsys.readouterr().err

    def test_overflowing_assessment_names_parcel(self, coastal_fixture, capsys):
        doc = json.loads((coastal_fixture / "parcels.geojson").read_text())
        for feature in doc["features"][:2]:
            feature["properties"]["current_assessment"] = 1e308
        (coastal_fixture / "parcels.geojson").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert ("error: apportioned value of parcel 'A' is not finite"
                in capsys.readouterr().err)
        assert not (coastal_fixture / "out").exists()

    def test_negative_area_parcel_is_exit_1_naming_parcel(self, coastal_fixture, capsys):
        doc = json.loads((coastal_fixture / "parcels.geojson").read_text())
        hole = rect_feature("h1", 0, 0, 20, 20, 1)["geometry"]["coordinates"][0]
        doc["features"].append(rect_feature("h1", 0, 0, 10, 10, 1000))
        doc["features"][-1]["geometry"]["coordinates"].append(hole)
        (coastal_fixture / "parcels.geojson").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err == (
            "error: degenerate parcel 'h1' (negative geometric area -300)\n")
        assert not (coastal_fixture / "out").exists()

    def test_unknown_config_key(self, coastal_fixture):
        doc = json.loads((coastal_fixture / "run.json").read_text())
        doc["cellsize"] = 98
        (coastal_fixture / "run.json").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_CONFIG_ERROR

    def test_missing_config_key(self, coastal_fixture, capsys):
        doc = json.loads((coastal_fixture / "run.json").read_text())
        del doc["bfe_path"]
        (coastal_fixture / "run.json").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: missing config key(s): bfe_path\n"

    def test_no_parcels_is_empty_input(self, coastal_fixture, capsys):
        (coastal_fixture / "parcels.geojson").write_text(
            '{"type": "FeatureCollection", "features": []}')
        assert self.run(coastal_fixture) == EXIT_EMPTY_INPUT

    def test_cell_area_basis_counts_whole_cells(self, coastal_fixture):
        assert self.run(coastal_fixture, "--area-basis", "cell",
                        "--out", str(coastal_fixture / "cellbasis")) == EXIT_OK
        line = (coastal_fixture / "cellbasis" / "report.csv").read_text().split("\n")[1]
        # 6 flooded cells x 9,604 sqft, parcel-free ones included
        assert float(line.split(",")[2]) == pytest.approx(6 * 9_604.0)

    def test_no_partial_outputs_on_failure(self, coastal_fixture):
        (coastal_fixture / "bfe.geojson").write_text("{broken")
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert not (coastal_fixture / "out").exists()

    def test_default_curve_used_when_unconfigured(self, coastal_fixture):
        doc = json.loads((coastal_fixture / "run.json").read_text())
        del doc["damage_curve_path"]
        (coastal_fixture / "run.json").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_OK
        assert (coastal_fixture / "out" / "report.csv").exists()


class TestRunConfig:
    def test_paths_resolve_against_config_dir(self, coastal_fixture):
        cfg = RunConfig.from_file(str(coastal_fixture / "run.json"))
        assert cfg.dem_path == str(coastal_fixture / "dem.asc")
        assert cfg.output_dir == str(coastal_fixture / "out")

    @pytest.mark.parametrize("field, value", [
        ("cell_size", float("nan")),
        ("cell_size", float("inf")),
        ("slr_list", [0.0, 1.0, float("inf")]),
        ("slr_list", [0.0, float("nan"), 2.0]),
        ("slr_list", [float("nan")]),
    ])
    def test_non_finite_config_is_config_error(self, coastal_fixture, field, value):
        cfg = RunConfig.from_file(str(coastal_fixture / "run.json"))
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match="finite"):
            cfg.validate()
        doc = json.loads((coastal_fixture / "run.json").read_text())
        doc[field] = value  # json writes NaN and Infinity, and the loader reads them
        (coastal_fixture / "run.json").write_text(json.dumps(doc))
        assert main(["assess", "--config", str(coastal_fixture / "run.json")]) \
            == EXIT_CONFIG_ERROR

    def test_validate_rejects_bad_cell_size(self, coastal_fixture):
        cfg = RunConfig.from_file(str(coastal_fixture / "run.json"))
        cfg.cell_size = -1
        with pytest.raises(ValueError):
            cfg.validate()

    def test_negative_zero_base_is_spelled_0(self, coastal_fixture):
        config = coastal_fixture / "run.json"
        cfg = RunConfig.from_file(str(config))
        cfg.slr_list = ["-0", 1]
        cfg.validate()
        assert [math.copysign(1.0, s) for s in cfg.slr_list] == [1.0, 1.0]
        for out, slr in (("plain", "0,1"), ("flag", "-0,1")):
            assert main(["assess", "--config", str(config), f"--slr={slr}",
                         "--out", str(coastal_fixture / out)]) == EXIT_OK
        doc = json.loads(config.read_text())
        doc.update(slr_list=[-0.0, 1], output_dir="config")  # json writes and reads -0.0
        config.write_text(json.dumps(doc))
        assert main(["assess", "--config", str(config)]) == EXIT_OK
        expected = read_outputs(coastal_fixture / "plain")
        assert sorted(expected) == ["cells.csv", "flood_0.geojson", "flood_1.geojson",
                                    "report.csv"]
        assert read_outputs(coastal_fixture / "flag") == expected
        assert read_outputs(coastal_fixture / "config") == expected


EDA_TABLE = (
    "parcel_id,current_assessment,land_area,shape_area,base_flood\n"
    + "".join(f"g{k},{50_000 + 7_000 * k},{4_000 + 100 * k},{3_900 + 120 * k},6\n"
              for k in range(15))
    + "cheap,5000,4000,4000,6\n"
    + "lowprice,20000,1000000,4000,6\n"
    + "dry,100000,4000,4000,0\n"
    + "noshape,100000,4000,0,6\n"
    + "exact,10000,4000,4000,6\n"
)


class TestEdaCommand:
    def test_outputs(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE)
        out = tmp_path / "eda_out"
        assert main(["eda", "--table", str(table), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "eda_report.json").read_text())
        assert report["counts"]["input"] == 20
        assert report["counts"]["positive_area_cost"] == 15
        scatter = (out / "scatter.csv").read_text().strip().split("\n")
        assert scatter[0] == "parcel_id,shape_area,area_cost"
        assert len(scatter) == 1 + report["counts"]["outlier_removal"]

    def test_rerun_byte_identical(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE)
        out = tmp_path / "eda_out"
        main(["eda", "--table", str(table), "--out", str(out)])
        first = read_outputs(out)
        main(["eda", "--table", str(table), "--out", str(out)])
        assert read_outputs(out) == first

    def test_process_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE)
        # parts of one row, so that any count of CPUs above one splits the scatter
        monkeypatch.setattr(eda, "SCATTER_PART_ROWS", 1)
        split = geodata._workers
        monkeypatch.setattr(geodata, "_workers", lambda: 1)
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "one")]) == EXIT_OK
        monkeypatch.setattr(geodata, "_workers", split)
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "many")]) == EXIT_OK
        assert read_outputs(tmp_path / "one") == read_outputs(tmp_path / "many")

    def test_all_filtered_is_exit_3(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "parcel_id,current_assessment,land_area,shape_area,base_flood\n"
            "a,1,1,1,0\nb,2,1,1,0\n")
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_EMPTY_INPUT

    def test_constant_shape_area_is_exit_3(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("parcel_id,current_assessment,land_area,shape_area,base_flood\n"
                         + "".join(f"g{k},{50_000 + 7_000 * k},4000,3900,6\n" for k in range(6)))
        out = tmp_path / "o"
        assert main(["eda", "--table", str(table), "--out", str(out)]) == EXIT_EMPTY_INPUT
        assert "error: degenerate regressor (constant x)" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_table_is_parse_error(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("")
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert (f"error: attribute table file {table}: empty attribute table\n"
                in capsys.readouterr().err)

    def test_missing_table_is_parse_error(self, tmp_path, capsys):
        assert main(["eda", "--table", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE_ERROR
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_row_names_file_and_line(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE.replace("cheap,5000,", "cheap,five,"))
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert (f"error: attribute table file {table}: line 17: non-numeric field"
                in capsys.readouterr().err)

    def test_non_finite_field_names_file_and_line(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE.replace("dry,100000,", "\ndry,inf,"))
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert (f"error: attribute table file {table}: line 20: non-finite field in "
                f"['dry', 'inf', '4000', '4000', '0']" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_undecodable_table_is_exit_1_naming_file(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_bytes(EDA_TABLE.encode() + b"\xff")
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert (f"error: attribute table file {table}: not utf-8 text: byte 0xff at offset "
                f"{len(EDA_TABLE)} (invalid start byte)\n" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_undecodable_byte_wins_over_an_earlier_bad_row(self, tmp_path, capsys):
        data = EDA_TABLE.replace("g1,", "g1,x", 1).encode() + b"\xff"  # line 3 is non-numeric
        table = tmp_path / "table.csv"
        table.write_bytes(data)
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: attribute table file {table}: not utf-8 text: byte 0xff at offset "
            f"{len(data) - 1} (invalid start byte)")
        assert not (tmp_path / "o").exists()

    def test_undecodable_byte_mid_body_names_its_offset_in_the_file(self, tmp_path, capsys):
        data = EDA_TABLE.encode().replace(b"cheap,", b"ch\xffeap,")
        offset = data.index(b"\xff")
        table = tmp_path / "table.csv"
        table.write_bytes(data)
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: attribute table file {table}: not utf-8 text: byte 0xff at offset "
            f"{offset} (invalid start byte)")
        assert not (tmp_path / "o").exists()

    def test_area_cost_is_computed_once(self, tmp_path, monkeypatch):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE)
        calls, area_cost = [], eda.area_cost

        def spy(t, rows):
            calls.append(np.flatnonzero(rows).tolist())
            return area_cost(t, rows)
        monkeypatch.setattr(eda, "area_cost", spy)
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert calls == [[*range(15), 18]]  # the rows that pass the first three filters

    def test_the_table_is_freed_before_the_fit(self, tmp_path, monkeypatch):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE)
        refs, alive, read, fit = [], [], cli.read_attribute_table, eda.ols_fit

        def read_spy(source):
            columns = read(source)
            refs.extend(map(weakref.ref, columns.values()))
            return columns

        def fit_spy(x, y):
            alive.append([ref() is not None for ref in refs])
            return fit(x, y)
        monkeypatch.setattr(cli, "read_attribute_table", read_spy)
        monkeypatch.setattr(eda, "ols_fit", fit_spy)
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert alive == [[False] * 5]

    def test_overflowing_area_cost_names_parcel(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(EDA_TABLE + "huge,100000,1e-10,1e308,6\n")
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert "error: area cost of parcel 'huge' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    def test_overflowing_regression_sums_exit_1(self, tmp_path, capsys):
        # every area cost is finite, but the squared shape-area deviations are not
        table = tmp_path / "table.csv"
        table.write_text("parcel_id,current_assessment,land_area,shape_area,base_flood\n"
                         + "".join(f"r{k},{50_000 + 1000 * k},4000,{4e203 * (1 + 0.01 * k)!r},6\n"
                                   for k in range(15)))
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_PARSE_ERROR
        assert "error: sum of squared x deviations is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_mean_prints_only_its_error(self, tmp_path, capsys):
        # the shape areas' sum overflows in the mean, before any sum of squares
        table = tmp_path / "table.csv"
        table.write_text("parcel_id,current_assessment,land_area,shape_area,base_flood\n"
                         "a,100000,50000,0.85e308,6\nb,100000,50000,0.8e308,6\n"
                         "c,100000,50000,0.75e308,6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape main
            assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
                == EXIT_PARSE_ERROR
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("INFO ")]
        assert err == ["error: sum of squared x deviations is not finite"]
        assert not (tmp_path / "o").exists()

def test_traced_layer_names_are_bound_in_cli():
    """perfbench/child.py times the layers by name in floodgrid.cli; a renamed
    layer would silently read 0 there, and so would a layer that became a
    generator, whose call returns before its work is done."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.LAYER_CALLS
    assert [name for name in child.LAYER_CALLS if not hasattr(cli, name)] == []
    # the two renderers are lazy on purpose: cli.write times their rendering
    assert {name for name in child.LAYER_CALLS
            if inspect.isgeneratorfunction(getattr(cli, name))} \
        == {"cell_states_csv", "flooded_cells_geojson"}


# A 4x4 DEM under a 2x2 fishnet: one parcel, one BFE zone, a linear curve;
# and the EDA table
TINY_FILES = {
    "dem.asc": write_ascii_grid(Raster(4, 4, 0.0, 0.0, 10.0, -9999.0,
                                       np.arange(16.0).reshape(4, 4) / 4)),
    "parcels.geojson": json.dumps({
        "type": "FeatureCollection", "features": [rect_feature("A", 0, 0, 20, 20, 100_000)]}),
    "bfe.geojson": json.dumps({
        "type": "FeatureCollection", "features": [{
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [
                [[0, 0], [40, 0], [40, 40], [0, 40], [0, 0]]]},
            "properties": {"static_bfe": 8.0}}]}),
    "curve.json": "[[0, 0], [10, 1]]",
    "run.json": json.dumps({
        "dem_path": "dem.asc", "parcels_path": "parcels.geojson", "bfe_path": "bfe.geojson",
        "damage_curve_path": "curve.json", "cell_size": 20.0, "slr_list": [0, 1],
        "output_dir": "out"}),
    "table.csv": EDA_TABLE,
}


def write_tiny_fixture(path: Path) -> Path:
    for name, text in TINY_FILES.items():
        (path / name).write_text(text)
    return path


@pytest.fixture
def tiny_fixture(tmp_path):
    return write_tiny_fixture(tmp_path)


def edit_json(doc, keys, value):
    """``doc`` with the item at the path ``keys`` set to ``value``."""
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    doc[last] = value


HUGE = 10 ** 400  # a JSON integer too large for a float
# how an error message names each file of the tiny fixture
FILE_WHAT = {"dem.asc": "DEM", "parcels.geojson": "parcels", "bfe.geojson": "BFE zones",
             "curve.json": "damage curve", "run.json": "config", "table.csv": "attribute table"}
ASSESSMENT = ("features", 0, "properties", "current_assessment")

# file, item path in its JSON (None: the whole file), new value, exit code,
# and what the error line must say after the file (or, for config, the key);
# an input that runs (EXIT_OK) must give finite totals and no error line
CRASHING_INPUTS = {
    "huge assessment": ("parcels.geojson", ASSESSMENT, HUGE, EXIT_PARSE_ERROR,
                        "feature 0: non-finite value 1000"),
    "huge static_bfe": ("bfe.geojson", ("features", 0, "properties", "static_bfe"), HUGE,
                        EXIT_PARSE_ERROR, "feature 0: non-finite value 1000"),
    "huge curve depth": ("curve.json", (1, 0), HUGE, EXIT_PARSE_ERROR,
                         "entry 1: non-finite value in [1000"),
    "deeply nested parcels": ("parcels.geojson", None, "[" * 100_000 + "]" * 100_000,
                              EXIT_PARSE_ERROR, "invalid JSON: maximum recursion depth"),
    "huge cell_size": ("run.json", ("cell_size",), HUGE, EXIT_CONFIG_ERROR, "cell_size"),
    "null cell_size": ("run.json", ("cell_size",), None, EXIT_CONFIG_ERROR, "cell_size"),
    "text in slr_list": ("run.json", ("slr_list",), ["a"], EXIT_CONFIG_ERROR, "slr_list"),
    "number as slr_list": ("run.json", ("slr_list",), 3, EXIT_CONFIG_ERROR, "slr_list"),
    "number as dem_path": ("run.json", ("dem_path",), 3, EXIT_CONFIG_ERROR, "dem_path"),
    "true cell_size": ("run.json", ("cell_size",), True, EXIT_CONFIG_ERROR,
                       "cell_size must be positive and finite, got True"),
    "booleans in slr_list": ("run.json", ("slr_list",), [False, True], EXIT_CONFIG_ERROR,
                             "slr_list must be a list of numbers, got [False, True]"),
    "infinite slr": ("run.json", ("slr_list",), [0, float("inf")], EXIT_CONFIG_ERROR,
                     "slr list values must be finite"),
    "NUL in output_dir": ("run.json", ("output_dir",), "a\u0000", EXIT_CONFIG_ERROR,
                          "output_dir must be a path"),
    "lone surrogate in output_dir": ("run.json", ("output_dir",), "\ud800", EXIT_CONFIG_ERROR,
                                     "output_dir must be a path"),
    "overflowing cell area": ("run.json", ("cell_size",), 1e200, EXIT_CONFIG_ERROR,
                              "cell_size must be positive and finite, got 1e+200"),
    "NUL in dem_path": ("run.json", ("dem_path",), "dem.asc\u0000", EXIT_CONFIG_ERROR,
                        "dem_path must be a path"),
    "lone surrogate in parcels_path": ("run.json", ("parcels_path",), "\udfff",
                                       EXIT_CONFIG_ERROR, "parcels_path must be a path"),
    "number as parcel properties": ("parcels.geojson", ("features", 0, "properties"), 5,
                                    EXIT_PARSE_ERROR, "feature 0: properties must be an object"),
    "number as BFE zone properties": ("bfe.geojson", ("features", 0, "properties"), 5,
                                      EXIT_PARSE_ERROR, "feature 0: properties must be an object"),
    # RFC 7946 positions are numbers, though float() reads a numeric string
    "numeric string as parcel vertex": ("parcels.geojson",
                                        ("features", 0, "geometry", "coordinates", 0, 1),
                                        ["20", "0"], EXIT_PARSE_ERROR,
                                        "feature 0: parcel 'A', ring 0: malformed ring "
                                        "coordinates"),
    "numeric string as BFE zone vertex": ("bfe.geojson",
                                          ("features", 0, "geometry", "coordinates", 0, 1),
                                          [40, "0.0"], EXIT_PARSE_ERROR,
                                          "feature 0, polygon 0, ring 0: malformed ring "
                                          "coordinates"),
    "huge parcel vertex": ("parcels.geojson", ("features", 0, "geometry", "coordinates", 0, 1),
                           [HUGE, 0], EXIT_PARSE_ERROR,
                           "feature 0: parcel 'A', ring 0: non-finite ring coordinates"),
    "huge BFE zone vertex": ("bfe.geojson", ("features", 0, "geometry", "coordinates", 0, 1),
                             [40, -HUGE], EXIT_PARSE_ERROR,
                             "feature 0, polygon 0, ring 0: non-finite ring coordinates"),
    "MultiPolygon of no members": ("parcels.geojson", ("features", 0, "geometry"),
                                   {"type": "MultiPolygon", "coordinates": []}, EXIT_PARSE_ERROR,
                                   "feature 0: empty geometry coordinates"),
    # RFC 8259 numbers, though float() reads a numeric string
    "numeric string assessment": ("parcels.geojson", ASSESSMENT, "100", EXIT_PARSE_ERROR,
                                  "feature 0: non-numeric value '100' for property "
                                  "'current_assessment' of parcel 'A'"),
    "numeric string land_area": ("parcels.geojson", ("features", 0, "properties", "land_area"),
                                 "1e2", EXIT_PARSE_ERROR, "feature 0: non-numeric value '1e2' "
                                 "for property 'land_area' of parcel 'A'"),
    "numeric string base_flood": ("parcels.geojson", ("features", 0, "properties", "base_flood"),
                                  "2", EXIT_PARSE_ERROR, "feature 0: non-numeric value '2' for "
                                  "property 'base_flood' of parcel 'A'"),
    "numeric string static_bfe": ("bfe.geojson", ("features", 0, "properties", "static_bfe"),
                                  "7.5", EXIT_PARSE_ERROR,
                                  "feature 0: non-numeric value '7.5' for property 'static_bfe'"),
    "numeric string in curve pair": ("curve.json", (0,), ["0", 0], EXIT_PARSE_ERROR,
                                     "entry 0: non-numeric pair ['0', 0]"),
    # finite, if huge: a parcel spread thin, a value of 300 digits, a flood 1e300 ft deep
    "1e300 parcel vertex": ("parcels.geojson", ("features", 0, "geometry", "coordinates", 0, 1),
                            [1e300, 0], EXIT_OK, None),
    "1e300 assessment": ("parcels.geojson", ASSESSMENT, 1e300, EXIT_OK, None),
    "1e300 static_bfe": ("bfe.geojson", ("features", 0, "properties", "static_bfe"), 1e300,
                         EXIT_OK, None),
    # finite DEM samples whose sum overflows: the four of fishnet cell (1, 0) are 1e308
    "overflowing DEM cell sum": ("dem.asc", None, write_ascii_grid(Raster(
        4, 4, 0.0, 0.0, 10.0, -9999.0, np.kron([[1e308, 0.0], [0.0, 0.0]], np.ones((2, 2))))),
        EXIT_PARSE_ERROR, "elevation sum of cell (1, 0) is not finite"),
    # sums too large to map, and a grid too large to index
    "tiny cell_size": ("run.json", ("cell_size",), 1e-5, EXIT_CONFIG_ERROR,
                       "error: cell_size 1e-05 gives 4000000x4000000 cells, too many to hold"),
    "tinier cell_size": ("run.json", ("cell_size",), 1e-300, EXIT_CONFIG_ERROR,
                         "at cell_size 1e-300 needs too many cells"),
}


@pytest.mark.parametrize("case", CRASHING_INPUTS)
def test_crashing_input_is_one_error_line(tiny_fixture, capsys, case):
    name, keys, value, code, message = CRASHING_INPUTS[case]
    path = tiny_fixture / name
    if keys is None:
        path.write_text(value)
    else:
        doc = json.loads(path.read_text())
        edit_json(doc, keys, value)
        path.write_text(json.dumps(doc))
    assert main(["assess", "--config", str(tiny_fixture / "run.json")]) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    if code == EXIT_OK:
        rows = (tiny_fixture / "out" / "report.csv").read_text().splitlines()[1:]
        assert errors == [] and rows
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:3])
        return
    assert len(errors) == 1
    if code == EXIT_CONFIG_ERROR:
        assert message in errors[0]
    else:
        assert errors[0].startswith(f"error: {FILE_WHAT[name]} file {path}: {message}")
    assert not (tiny_fixture / "out").exists()


def test_infinite_flood_depth_exits_1(tiny_fixture, capsys):
    # every input is finite, but 1e308 of BFE over a -1e308 sample is an infinite depth
    (tiny_fixture / "dem.asc").write_text(write_ascii_grid(Raster(
        4, 2, 0.0, 0.0, 1.0, -9999.0, np.array([[-1e308, 0, 0, 0], [0, 0, 0, 0]]))))
    bfe = tiny_fixture / "bfe.geojson"
    bfe.write_text(bfe.read_text().replace('"static_bfe": 8.0', '"static_bfe": 1e+308'))
    config = tiny_fixture / "run.json"
    config.write_text(config.read_text().replace('"cell_size": 20.0', '"cell_size": 1'))
    assert main(["assess", "--config", str(config)]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: flood depth of cell 4 at slr 0.0 is not finite"]
    assert not (tiny_fixture / "out").exists()


def test_readme_library_snippet_runs(tiny_fixture, monkeypatch, capsys):
    """README's "Library" and EDA code blocks run as written, in a directory of the tiny fixture."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    eda_code = re.search(r"The EDA stage .*?```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tiny_fixture)
    exec(code, {})
    assert capsys.readouterr().out.startswith("1 ")  # the one parcel
    assert sorted(p.name for p in tiny_fixture.glob("flood_*.geojson")) == \
        [f"flood_{slr}.geojson" for slr in (0.0, 1.0, 2.0, 3.0)]
    (tiny_fixture / "parcels.csv").write_text(EDA_TABLE)
    exec(eda_code, {})
    out = capsys.readouterr().out
    assert out.startswith("148000.0\n")  # the largest assessment, g14's
    assert "parcel_id,shape_area,area_cost\ng0," in out
    # what the block prints is what `floodgrid eda` writes for the same table
    assert main(["eda", "--table", "parcels.csv", "--out", "eda_out"]) == EXIT_OK
    written = read_outputs(tiny_fixture / "eda_out")
    assert out.encode() == (b"148000.0\n" + written["eda_report.json"] + b"\n"
                            + written["scatter.csv"] + b"\n")


def test_tiny_fixture_runs(tiny_fixture):
    assert main(["assess", "--config", str(tiny_fixture / "run.json")]) == EXIT_OK
    assert (tiny_fixture / "out" / "report.csv").exists()


def test_curve_rounding_past_a_breakpoint_assesses(tiny_fixture, capsys):
    # at depth 10, 0.3 + (0.9 - 0.3) rounds an ulp above 0.9, where the next
    # segment starts: sweep once found the damage falling and raised
    (tiny_fixture / "dem.asc").write_text(write_ascii_grid(Raster(
        2, 2, 0.0, 0.0, 10.0, -9999.0, np.zeros((2, 2)))))
    for name, keys, value in [("parcels.geojson", ASSESSMENT, 1_000_000),
                              ("bfe.geojson", ("features", 0, "properties", "static_bfe"), 10),
                              ("run.json", ("slr_list",), [0, 1e-15])]:
        doc = json.loads((tiny_fixture / name).read_text())
        edit_json(doc, keys, value)
        (tiny_fixture / name).write_text(json.dumps(doc))
    (tiny_fixture / "curve.json").write_text("[[0, 0], [7, 0.3], [10, 0.9], [16, 1.0]]")
    assert main(["assess", "--config", str(tiny_fixture / "run.json")]) == EXIT_OK
    assert "error" not in capsys.readouterr().err
    report = (tiny_fixture / "out" / "report.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in report] == [["0", "900000.00"],
                                                        ["1e-15", "900000.00"]]


def test_config_numbers_may_be_strings(tiny_fixture):
    config = tiny_fixture / "run.json"
    assert main(["assess", "--config", str(config)]) == EXIT_OK
    expected = read_outputs(tiny_fixture / "out")
    doc = json.loads(config.read_text())
    doc.update(cell_size="20", slr_list=["0", "1.0"], output_dir="out2")
    config.write_text(json.dumps(doc))
    assert main(["assess", "--config", str(config)]) == EXIT_OK
    assert read_outputs(tiny_fixture / "out2") == expected


@pytest.mark.parametrize("slr, message", [
    ("1,a", "slr_list must be a list of numbers, got ['1', 'a']"),
    ("0,inf", "slr list values must be finite"),
    ("1,2", "first scenario must be the base flood (slr 0), got 1.0"),
])
def test_bad_slr_flag_is_config_error_in_sweeps_wording(tiny_fixture, capsys, slr, message):
    assert main(["assess", "--config", str(tiny_fixture / "run.json"),
                 "--slr", slr]) == EXIT_CONFIG_ERROR
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tiny_fixture / "out").exists()


@pytest.mark.parametrize("number, code", [("60000", EXIT_OK), ("60_000", EXIT_OK),
                                          ("6e400", EXIT_PARSE_ERROR)])
def test_eda_reads_an_id_longer_than_the_csv_field_limit(tmp_path, capsys, number, code):
    # 1_000 and 6e400 (a non-finite field) send the table to the row loop
    table = tmp_path / "table.csv"
    table.write_text(EDA_TABLE + "x" * 140_000 + f",{number},4000,3900,6\n")
    assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) == code
    if code == EXIT_OK:
        report = json.loads((tmp_path / "o" / "eda_report.json").read_text())
        assert report["counts"]["input"] == 21
    else:
        assert (f"error: attribute table file {table}: line 22: non-finite field"
                in capsys.readouterr().err)


def command_args(fixture: Path, command: str) -> list[str]:
    """argv, less --out, of assess or eda on the tiny fixture."""
    if command == "assess":
        return ["assess", "--config", str(fixture / "run.json")]
    return ["eda", "--table", str(fixture / "table.csv")]


def error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("error: ")]


@pytest.mark.parametrize("command", ["assess", "eda"])
@pytest.mark.parametrize("below", [False, True])
def test_unwritable_output_dir_is_config_error(tiny_fixture, capsys, command, below):
    taken = tiny_fixture / "taken"
    taken.write_text("a file")
    out = taken / "sub" if below else taken
    assert main([*command_args(tiny_fixture, command), "--out", str(out)]) == EXIT_CONFIG_ERROR
    (error,) = error_lines(capsys.readouterr().err)
    assert error.startswith(f"error: cannot write output directory {out}: [Errno ")
    assert taken.read_text() == "a file"


def test_failed_write_replaces_no_output(tiny_fixture, capsys, monkeypatch):
    assert main(command_args(tiny_fixture, "assess")) == EXIT_OK
    out = tiny_fixture / "out"
    before = read_outputs(out)
    (tiny_fixture / "curve.json").write_text("[[0, 0], [5, 1]]")
    creates = []

    def second_create_fails(file, mode="r", *args, **kwargs):
        if mode == "x":  # the creation of a staged output
            creates.append(file)
            if len(creates) == 2:
                raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", second_create_fails, raising=False)
    assert main(command_args(tiny_fixture, "assess")) == EXIT_CONFIG_ERROR
    assert error_lines(capsys.readouterr().err) == [
        f"error: cannot write output directory {out}: [Errno 28] No space left on device"]
    assert read_outputs(out) == before  # no output replaced, and no temp file left
    monkeypatch.undo()
    assert main(command_args(tiny_fixture, "assess")) == EXIT_OK
    assert read_outputs(out) != before  # the new curve does change the outputs


class TestOutputMemory:
    """``run_assessment`` renders each flood GeoJSON as ``_write_outputs``
    writes it, so a run holds about one document at a time, not one per
    scenario."""

    WET = 28 * 42  # the zone's 7-ft cells, every one flooded by its 20-ft BFE

    def peak_bytes(self, fixture: Path, n_scenarios: int) -> int:
        config = RunConfig.from_file(str(fixture / "run.json"))
        config.slr_list = [0.25 * k for k in range(n_scenarios)]
        tracemalloc.start()
        try:
            cli._write_outputs(str(fixture / f"out{n_scenarios}"), cli.run_assessment(config))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_holds_about_one_document(self, coastal_fixture):
        bfe = coastal_fixture / "bfe.geojson"
        bfe.write_text(bfe.read_text().replace('"static_bfe": 8.0', '"static_bfe": 20.0'))
        run = coastal_fixture / "run.json"
        run.write_text(run.read_text().replace('"cell_size": 98.0', '"cell_size": 7.0'))
        peaks = {n: self.peak_bytes(coastal_fixture, n) for n in (4, 40)}
        docs = sorted((coastal_fixture / "out40").glob("flood_*.geojson"))
        assert len(docs) == 40
        assert {len(json.loads(p.read_text())["features"]) for p in docs} == {self.WET}
        doc = max(p.stat().st_size for p in docs)
        # each added scenario keeps its result, a cell index, depth and
        # damage per wet cell, but not its document (~190 bytes a cell)
        assert peaks[40] - peaks[4] <= 36 * 32 * self.WET
        # beyond the results: the rings, the document being rendered, its
        # pieces and the one before it
        assert peaks[40] <= 40 * 32 * self.WET + 6 * doc


def test_cells_csv_is_written_a_line_at_a_time(tmp_path):
    # full-precision values (~57 bytes a line): what the peak holds is the
    # columns as Python numbers (~150 bytes a cell), not the joined text
    g = GridSpec(0, 0, 14, 350, 70)
    rng = np.random.default_rng(0)
    n = g.n_cells
    states = CellArrays(rng.uniform(0, 60, n), np.round(rng.uniform(2, 9, n), 1),
                        rng.uniform(0, 1e6, n), rng.uniform(0, 196, n))
    tracemalloc.start()
    try:
        cli._write_outputs(str(tmp_path), [("cells.csv", cell_states_csv(g, states))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (tmp_path / "cells.csv").stat().st_size


def test_eda_table_is_read_without_holding_its_text(tmp_path):
    # benchmark-shaped rows: numpy reads them from the file a line at a time,
    # so the peak is about the records it reads, their id strs and the ids'
    # StringDType copy (~1.0x); holding the text and a 4-byte-a-character copy
    # of it beside them comes to ~2.7x
    rng = np.random.default_rng(3)
    columns = np.round(np.exp(rng.normal(9.0, 2.0, (4, 20_000))), 1).tolist()
    path = tmp_path / "table.csv"
    path.write_text(EDA_TABLE.split("\n")[0] + "\n" + "".join(
        f"r{k:06d},{a!r},{b!r},{c!r},{d!r}\n" for k, (a, b, c, d) in enumerate(zip(*columns))))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            table = eda.read_attribute_table(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ids = table["parcel_id"]
    own = eda.TABLE_DTYPE.itemsize * len(ids) + sum(map(sys.getsizeof, ids.tolist())) + ids.nbytes
    assert len(ids) == 20_000
    assert peak < 1.25 * own < path.stat().st_size + own


@pytest.mark.parametrize("command", ["assess", "eda"])
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_modes_follow_the_umask(tiny_fixture, command, umask, mode):
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tiny_fixture / "modes"
    run = subprocess.run([sys.executable, "-m", "floodgrid.cli",
                          *command_args(tiny_fixture, command), "--out", str(out)],
                         env=dict(os.environ, PYTHONPATH=src), umask=umask,
                         capture_output=True, timeout=60)
    assert run.returncode == EXIT_OK, run.stderr
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert len(modes) == (4 if command == "assess" else 2)  # and no temp file
    assert set(modes.values()) == {mode}


def test_eda_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(EDA_TABLE.replace("g0,", "p\u00e90,"), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    scatters = []
    for locale in ("C.UTF-8", "C"):
        env = dict(os.environ, LC_ALL=locale, PYTHONUTF8="0", PYTHONPATH=src)
        out = tmp_path / locale
        run = subprocess.run([sys.executable, "-m", "floodgrid.cli", "eda", "--table", str(table),
                              "--out", str(out)], env=env, capture_output=True, timeout=60)
        assert run.returncode == EXIT_OK, run.stderr
        scatters.append((out / "scatter.csv").read_bytes())
    assert scatters[0] == scatters[1]
    assert "\np\u00e90,".encode() in scatters[0]


DEEP = "\u0000deep"  # written as 100 000 nested arrays
HOSTILE_VALUES = [HUGE, 1e308, None, True, False, "", "\u0000", "\ud800", [], {}, DEEP]
# written over, or before, one whitespace- or comma-separated token of the DEM
# or EDA table (a BOM before the first token starts the file)
HOSTILE_TOKENS = [b"\xef\xbb\xbf", b"\x00", b"\xff", b"1e400", b"nan", b'"a\nb"', b"x" * 140_000]
TOKEN = re.compile(rb"[^\s,]+")
# exit 1 without a file: finite input whose values overflow, named as README "CLI" says
VALUE_ERROR = re.compile(r"error: (apportioned value of parcel|exposure of cell|totals of scenario"
                         r"|area cost of parcel|flood depth of cell) .* is not finite")


def json_items(doc, keys=()):
    """The key path of every item of a JSON document, the root () first."""
    yield keys
    if isinstance(doc, (dict, list)):
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            yield from json_items(doc[key], (*keys, key))


@st.composite
def one_change(draw):
    """(file, new bytes, the config key changed or None): one item of a JSON
    input set to a hostile value, or one token of the DEM or EDA table
    replaced or preceded by a hostile one."""
    name = draw(st.sampled_from(sorted(FILE_WHAT)))
    text = TINY_FILES[name]
    if name in ("dem.asc", "table.csv"):
        data = text.encode()
        token = draw(st.sampled_from(list(TOKEN.finditer(data))))
        end = token.start() if draw(st.booleans()) else token.end()
        data = data[:token.start()] + draw(st.sampled_from(HOSTILE_TOKENS)) + data[end:]
        return name, data, None
    doc = json.loads(text)
    keys = draw(st.sampled_from(list(json_items(doc))))
    value = draw(st.sampled_from(HOSTILE_VALUES))
    if keys:
        edit_json(doc, keys, value)
    else:
        doc = value
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)
    return name, text.encode(), keys[0] if name == "run.json" and keys else None


def assert_finite_numbers(path: Path):
    """Every number in an output file is finite (a CSV's first column holds ids)."""
    def finite(token):
        assert math.isfinite(float(token)), f"{path.name}: {token}"

    text = path.read_text()
    if path.suffix == ".csv":
        limit = csv.field_size_limit(len(text) + 1)
        try:
            for row in csv.reader(io.StringIO(text)):
                for field in row[1:]:
                    if re.match(r"\s*[-+]?(\d|\.\d|inf|nan)", field, re.I):
                        finite(field)
        finally:
            csv.field_size_limit(limit)
    else:
        json.loads(text, parse_float=finite, parse_int=finite, parse_constant=finite)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(one_change())
def test_no_input_ends_in_a_traceback(change):
    """One hostile change to the tiny fixture exits 0 with finite outputs, or
    1, 2 or 3 with one error line naming the file (1) or the key (2)."""
    name, data, key = change
    with tempfile.TemporaryDirectory() as tmp:
        root = write_tiny_fixture(Path(tmp))
        (root / name).write_bytes(data)
        out = root / ("eda_out" if name == "table.csv" else "out")
        args = (["eda", "--table", str(root / name), "--out", str(out)] if name == "table.csv"
                else ["assess", "--config", str(root / "run.json")])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_CONFIG_ERROR, EXIT_EMPTY_INPUT)
        if code == EXIT_OK:
            assert errors == []
            for path in out.iterdir():
                assert_finite_numbers(path)
            return
        assert len(errors) == 1 and not out.exists()
        if code == EXIT_CONFIG_ERROR:
            # the slr_list rules word their errors as sweep does ("empty slr list")
            assert name == "run.json"
            assert ("slr" if key == "slr_list" else key or "dem_path") in errors[0]
        elif code == EXIT_PARSE_ERROR and not VALUE_ERROR.fullmatch(errors[0]):
            assert errors[0].startswith(f"error: {FILE_WHAT[name]} file {root / name}: ")
