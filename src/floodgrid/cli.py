"""Command-line entry point.

Subcommands: ``fishnet`` (print a grid definition), ``assess`` (full
pipeline: parse inputs, overlay, zonal stats, scenario sweep, write report
and per-scenario GeoJSON), ``eda`` (attribute-table diagnostics). Runs are
driven by a JSON config with flag overrides; identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

from .damage import load_default_curve
from .eda import read_attribute_table, run_eda, scatter_export
from .geodata import (
    ParseError,
    format_number,
    load_json,
    parse_ascii_grid,
    parse_bfe_zones,
    parse_damage_curve,
    parse_parcels,
    write_report,
)
from .grid import make_fishnet
from .overlay import apportion_many
from .scenario import AREA_BASES, check_scenarios, flooded_cells_geojson, sweep
from .terrain import assign_bfe, build_cell_states, cell_states_csv, zonal_mean_elevation

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_EMPTY_INPUT = 3


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


class EmptyInputError(Exception):
    """Inputs parsed fine but leave nothing to assess."""


_PATH_FIELDS = ("dem_path", "parcels_path", "bfe_path", "damage_curve_path", "output_dir")


@dataclass
class RunConfig:
    """Assessment run configuration (JSON file, flags win on conflict)."""

    dem_path: str
    parcels_path: str
    bfe_path: str
    damage_curve_path: str = ""
    cell_size: float = 98.0
    slr_list: list[float] = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0])
    area_basis: str = "parcel"
    output_dir: str = "."

    def validate(self) -> None:
        """Check every field; cell_size and slr_list become floats. A number may
        be a string float() reads, but not a bool. A path must be a name the
        OS accepts, and the cell area, cell_size ** 2, must be finite."""
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            try:
                if not (isinstance(value, str) and (value or name == "damage_curve_path")
                        and b"\0" not in os.fsencode(value)):
                    raise ValueError
            except ValueError:  # a UnicodeEncodeError, from a lone surrogate, too
                raise ConfigError(f"{name} must be a path, got {value!r}") from None
        try:
            if isinstance(self.cell_size, bool):
                raise TypeError
            self.cell_size = float(self.cell_size)
            if not (self.cell_size > 0 and math.isfinite(self.cell_size ** 2)):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"cell_size must be positive and finite, "
                              f"got {self.cell_size!r}") from None
        try:
            if not isinstance(self.slr_list, list) or bool in map(type, self.slr_list):
                raise TypeError
            self.slr_list = [float(s) for s in self.slr_list]
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"slr_list must be a list of numbers, "
                              f"got {self.slr_list!r}") from None
        try:
            check_scenarios(self.slr_list, self.area_basis)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        doc = _parse_input(path, "config", load_json)
        if not isinstance(doc, dict):
            raise ParseError(f"config file {path}: expected a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        missing = [k for k in ("dem_path", "parcels_path", "bfe_path") if k not in doc]
        if missing:
            raise ConfigError(f"missing config key(s): {', '.join(missing)}")
        cfg = cls(**doc)
        for name in _PATH_FIELDS:  # relative to the config file; absolute paths pass through
            value = getattr(cfg, name)
            if isinstance(value, str) and value:
                setattr(cfg, name, str(Path(path).parent / value))
        return cfg


def _parse_input(path: str, what: str, parse, mode: str = "r"):
    """Parse one input file's text, or in mode "rb" the open file; errors name the file."""
    try:
        with open(path, mode) as fh:
            return parse(fh.read() if mode == "r" else fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # the offset is from the start of the file
        byte = exc.object[exc.start]
        raise ParseError(f"{what} file {path}: not {exc.encoding} text: byte {byte:#04x} "
                         f"at offset {exc.start} ({exc.reason})") from None
    except ParseError as exc:
        raise ParseError(f"{what} file {path}: {exc}") from None


def run_assessment(config: RunConfig) -> dict[str, str]:
    """Execute the full pipeline, returning output filename -> content.

    Outputs are rendered fully in memory so a failure never leaves partial
    files behind.
    """
    config.validate()

    def grid_elevations(fh):
        dem = parse_ascii_grid(fh)
        g = make_fishnet(dem.bbox(), config.cell_size)
        return g, zonal_mean_elevation(dem, g)

    # The DEM body streams into the zonal sums before the other inputs are
    # read, so a DEM error is the one reported.
    g, elevations = _parse_input(config.dem_path, "DEM", grid_elevations, "rb")
    parcels = _parse_input(config.parcels_path, "parcels", parse_parcels)
    zones = _parse_input(config.bfe_path, "BFE zones", parse_bfe_zones)
    if config.damage_curve_path:
        curve = _parse_input(config.damage_curve_path, "damage curve", parse_damage_curve)
    else:
        logger.info("no damage curve configured; using the uncalibrated packaged default")
        curve = load_default_curve()

    if not parcels:
        raise EmptyInputError(f"no parcels in {config.parcels_path}")

    logger.info("fishnet %dx%d over DEM extent, %d parcels", g.n_rows, g.n_cols, len(parcels))

    attributions = apportion_many(parcels, g)
    bfes = assign_bfe(g, zones)
    states = build_cell_states(g, attributions, elevations, bfes)
    results = sweep(states, curve, config.slr_list, area_basis=config.area_basis,
                    cell_area=config.cell_size ** 2)

    outputs = {
        "report.csv": write_report(results),
        "cells.csv": cell_states_csv(g, states),
    }
    for r, doc in zip(results, flooded_cells_geojson(g, results)):
        outputs[f"flood_{format_number(r.slr)}.geojson"] = doc
    return outputs


def _write_outputs(output_dir: str, outputs: dict[str, str]) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in outputs.items():
        # temp file in the target dir, then atomic rename
        fd, tmp = tempfile.mkstemp(dir=out, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(content)
            os.replace(tmp, out / name)
        except BaseException:
            os.unlink(tmp)
            raise


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def cmd_assess(config: RunConfig) -> int:
    try:
        outputs = run_assessment(config)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG_ERROR)
    except EmptyInputError as exc:
        return _fail(exc, EXIT_EMPTY_INPUT)
    except ValueError as exc:
        # a ParseError, or bad input data caught past parsing, e.g. a degenerate parcel
        return _fail(exc, EXIT_PARSE_ERROR)
    _write_outputs(config.output_dir, outputs)
    return EXIT_OK


def cmd_eda(table_path: str, output_dir: str) -> int:
    try:
        # the full table is freed once run_eda returns, before the scatter is rendered
        report, kept = run_eda(_parse_input(table_path, "attribute table",
                                            read_attribute_table))
    except (ParseError, OverflowError) as exc:
        # unreadable input, or finite fields whose area cost overflows
        return _fail(exc, EXIT_PARSE_ERROR)
    except ValueError as exc:
        return _fail(exc, EXIT_EMPTY_INPUT)
    _write_outputs(output_dir, {
        "eda_report.json": report.to_json(),
        "scatter.csv": scatter_export(kept),
    })
    return EXIT_OK


def cmd_fishnet(bbox_arg: str, cell_size: float) -> int:
    try:
        parts = [float(v) for v in bbox_arg.split(",")]
        if len(parts) != 4:
            raise ValueError(f"bbox needs 4 numbers, got {len(parts)}")
        g = make_fishnet((parts[0], parts[1], parts[2], parts[3]), cell_size)
    except ValueError as exc:
        return _fail(exc, EXIT_CONFIG_ERROR)
    print(g.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodgrid",
        description="Grid-based coastal flood risk assessment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fish = sub.add_parser("fishnet", help="print the fishnet grid spec for a bounding box")
    p_fish.add_argument("--bbox", required=True, metavar="XMIN,YMIN,XMAX,YMAX")
    p_fish.add_argument("--cell-size", type=float, default=98.0)

    p_assess = sub.add_parser("assess", help="run the full flood risk assessment")
    p_assess.add_argument("--config", required=True, help="JSON run configuration")
    p_assess.add_argument("--slr", help="override slr scenario list, e.g. 0,1,2,3")
    p_assess.add_argument("--area-basis", choices=AREA_BASES,
                          help="count flooded area by parcel exposure or full cells")
    p_assess.add_argument("--out", help="override the configured output directory")

    p_eda = sub.add_parser("eda", help="exploratory analysis of a parcel attribute table")
    p_eda.add_argument("--table", required=True, help="attribute CSV")
    p_eda.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)

    if args.command == "fishnet":
        return cmd_fishnet(args.bbox, args.cell_size)

    if args.command == "assess":
        try:
            config = RunConfig.from_file(args.config)
        except ParseError as exc:
            return _fail(exc, EXIT_PARSE_ERROR)
        except ConfigError as exc:
            return _fail(exc, EXIT_CONFIG_ERROR)
        config.slr_list = args.slr.split(",") if args.slr else config.slr_list
        config.area_basis = args.area_basis or config.area_basis
        config.output_dir = args.out or config.output_dir
        return cmd_assess(config)

    if args.command == "eda":
        return cmd_eda(args.table, args.out)

    raise AssertionError(f"unhandled command {args.command!r}")


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
