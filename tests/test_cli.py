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

import json
from pathlib import Path

import numpy as np
import pytest

from floodgrid.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_EMPTY_INPUT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    ConfigError,
    RunConfig,
    cmd_assess,
    main,
)
from floodgrid.geodata import Raster, write_ascii_grid


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

    def test_thread_count_does_not_change_bytes(self, coastal_fixture, monkeypatch):
        assert self.run(coastal_fixture) == EXIT_OK
        serial = read_outputs(coastal_fixture / "out")
        # runs are single-threaded; the old thread-count variable is ignored
        monkeypatch.setenv("FLOODGRID_THREADS", "4")
        assert self.run(coastal_fixture, "--out", str(coastal_fixture / "out2")) == EXIT_OK
        threaded = read_outputs(coastal_fixture / "out2")
        assert serial == threaded

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

    def test_non_finite_assessment_is_parse_error(self, coastal_fixture, capsys):
        doc = json.loads((coastal_fixture / "parcels.geojson").read_text())
        doc["features"][2]["properties"]["current_assessment"] = float("nan")
        (coastal_fixture / "parcels.geojson").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_PARSE_ERROR
        assert "feature 2: non-finite value" in capsys.readouterr().err

    def test_unknown_config_key(self, coastal_fixture):
        doc = json.loads((coastal_fixture / "run.json").read_text())
        doc["cellsize"] = 98
        (coastal_fixture / "run.json").write_text(json.dumps(doc))
        assert self.run(coastal_fixture) == EXIT_CONFIG_ERROR

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
        assert cmd_assess(cfg) == EXIT_CONFIG_ERROR

    def test_validate_rejects_bad_cell_size(self, coastal_fixture):
        cfg = RunConfig.from_file(str(coastal_fixture / "run.json"))
        cfg.cell_size = -1
        with pytest.raises(ValueError):
            cfg.validate()


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

    def test_all_filtered_is_exit_3(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "parcel_id,current_assessment,land_area,shape_area,base_flood\n"
            "a,1,1,1,0\nb,2,1,1,0\n")
        assert main(["eda", "--table", str(table), "--out", str(tmp_path / "o")]) \
            == EXIT_EMPTY_INPUT

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
