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
from contextlib import suppress
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
    """A run configuration violates its invariants, or its output directory cannot be written."""


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
    """Parse one input file's UTF-8 text, or in mode "rb" the open file; errors name the file."""
    try:
        with open(path, mode, encoding="utf-8" if mode == "r" else None) as fh:
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
        bbox = dem.bbox()
        if not (bbox[2] > bbox[0] and bbox[3] > bbox[1]):  # cells lost beside a far larger corner
            raise ParseError(f"degenerate bbox {bbox!r}")
        try:  # the extent is finite and not empty: only cell_size can fail here
            g = make_fishnet(bbox, config.cell_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            return g, zonal_mean_elevation(dem, g)
        except MemoryError:
            raise ConfigError(f"cell_size {config.cell_size} gives {g.n_rows}x{g.n_cols} "
                              f"cells, too many to hold in memory") from None

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
    """Write each output (file name -> text) into ``output_dir`` as UTF-8.

    Every output is written to a temp file there before any is renamed into
    place, so a failed write replaces none; temp files never outlive the
    call. An OSError is a ConfigError naming the directory.
    """
    out = Path(output_dir)
    staged = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            fd, tmp = tempfile.mkstemp(dir=out, prefix=f".{name}.")
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        for name, tmp in zip(outputs, staged):
            os.replace(tmp, out / name)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {output_dir}: {exc}") from None
    finally:
        for tmp in staged:
            with suppress(OSError):  # gone once renamed
                os.unlink(tmp)


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
    """Run one command. A failure prints one ``error:`` line and returns its exit code."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fishnet":
            try:
                parts = [float(v) for v in args.bbox.split(",")]
                if len(parts) != 4:
                    raise ValueError(f"bbox needs 4 numbers, got {len(parts)}")
                g = make_fishnet(tuple(parts), args.cell_size)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            print(g.to_json())
        elif args.command == "assess":
            config = RunConfig.from_file(args.config)
            config.slr_list = args.slr.split(",") if args.slr else config.slr_list
            config.area_basis = args.area_basis or config.area_basis
            config.output_dir = args.out or config.output_dir
            _write_outputs(config.output_dir, run_assessment(config))
        else:
            try:  # the full table is freed once run_eda returns, before the scatter is rendered
                report, kept = run_eda(_parse_input(args.table, "attribute table",
                                                    read_attribute_table))
            except ParseError:
                raise
            except ValueError as exc:  # too few records, or a degenerate fit
                raise EmptyInputError(str(exc)) from None
            _write_outputs(args.out, {
                "eda_report.json": report.to_json(),
                "scatter.csv": scatter_export(kept),
            })
    except (ValueError, OverflowError, EmptyInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # else a ParseError, or input found bad past parsing (a degenerate parcel, an overflow)
        return (EXIT_CONFIG_ERROR if isinstance(exc, ConfigError)
                else EXIT_EMPTY_INPUT if isinstance(exc, EmptyInputError) else EXIT_PARSE_ERROR)
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
