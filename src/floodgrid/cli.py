"""Command-line entry point.

Subcommands: ``fishnet`` (print a grid definition), ``assess`` (full
pipeline: parse inputs, overlay, zonal stats, scenario sweep, write report
and per-scenario GeoJSON), ``eda`` (attribute-table diagnostics). Runs are
driven by a JSON config with flag overrides; identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .damage import load_default_curve
from .eda import read_attribute_table, run_eda, scatter_export
from .geodata import (
    ParseError,
    format_number,
    parse_ascii_grid,
    parse_bfe_zones,
    parse_damage_curve,
    parse_parcels,
    write_report,
)
from .grid import make_fishnet
from .overlay import apportion_many
from .scenario import AREA_BASES, flooded_cells_geojson, sweep
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


_CONFIG_KEYS = {
    "dem_path", "parcels_path", "bfe_path", "damage_curve_path",
    "cell_size", "slr_list", "area_basis", "output_dir",
}


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
        for name in ("dem_path", "parcels_path", "bfe_path", "output_dir"):
            if not getattr(self, name):
                raise ConfigError(f"config field {name!r} must be a nonempty path")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ConfigError(f"cell_size must be positive and finite, got {self.cell_size}")
        if not self.slr_list:
            raise ConfigError("slr_list must be nonempty")
        if not all(math.isfinite(s) for s in self.slr_list):
            raise ConfigError(f"slr_list values must be finite, got {self.slr_list}")
        if self.slr_list[0] != 0:
            raise ConfigError(f"slr_list must start at 0, got {self.slr_list[0]}")
        if any(not b > a for a, b in zip(self.slr_list, self.slr_list[1:])):
            raise ConfigError(f"slr_list must be strictly ascending, got {self.slr_list}")
        if self.area_basis not in AREA_BASES:
            raise ConfigError(f"area_basis must be one of {AREA_BASES}, got {self.area_basis!r}")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file {path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ParseError(f"config file {path}: expected a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        missing = [k for k in ("dem_path", "parcels_path", "bfe_path") if k not in doc]
        if missing:
            raise ConfigError(f"missing config key(s): {', '.join(missing)}")
        base = Path(path).parent
        cfg = cls(
            dem_path=_resolve(base, doc["dem_path"]),
            parcels_path=_resolve(base, doc["parcels_path"]),
            bfe_path=_resolve(base, doc["bfe_path"]),
            damage_curve_path=_resolve(base, doc.get("damage_curve_path", "")),
            cell_size=float(doc.get("cell_size", 98.0)),
            slr_list=[float(s) for s in doc.get("slr_list", [0, 1, 2, 3])],
            area_basis=str(doc.get("area_basis", "parcel")),
            output_dir=_resolve(base, doc.get("output_dir", ".")),
        )
        return cfg


def _resolve(base: Path, p: str) -> str:
    """Config-relative path resolution; absolute paths pass through."""
    if not p:
        return p
    return str(Path(p) if Path(p).is_absolute() else base / p)


def _parse_input(path: str, what: str, parse):
    """Read one input file and parse it; a ParseError names the file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{what} file {path}: {exc}") from None


def run_assessment(config: RunConfig) -> dict[str, str]:
    """Execute the full pipeline, returning output filename -> content.

    Outputs are rendered fully in memory so a failure never leaves partial
    files behind.
    """
    config.validate()
    dem = _parse_input(config.dem_path, "DEM", parse_ascii_grid)
    parcels = _parse_input(config.parcels_path, "parcels", parse_parcels)
    zones = _parse_input(config.bfe_path, "BFE zones", parse_bfe_zones)
    if config.damage_curve_path:
        curve = _parse_input(config.damage_curve_path, "damage curve",
                             parse_damage_curve)
    else:
        logger.info("no damage curve configured; using the uncalibrated packaged default")
        curve = load_default_curve()

    if not parcels:
        raise EmptyInputError(f"no parcels in {config.parcels_path}")

    g = make_fishnet(dem.bbox(), config.cell_size)
    logger.info("fishnet %dx%d over DEM extent, %d parcels", g.n_rows, g.n_cols, len(parcels))

    attributions = apportion_many(parcels, g)
    elevations = zonal_mean_elevation(dem, g)
    bfes = assign_bfe(g, zones)
    states = build_cell_states(g, attributions, elevations, bfes)
    results = sweep(states, curve, config.slr_list, area_basis=config.area_basis,
                    cell_area=config.cell_size ** 2)

    outputs = {
        "report.csv": write_report(results),
        "cells.csv": cell_states_csv(g, states),
    }
    for r in results:
        outputs[f"flood_{format_number(r.slr)}.geojson"] = flooded_cells_geojson(g, r)
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


def cmd_assess(config: RunConfig) -> int:
    try:
        config.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        outputs = run_assessment(config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_INPUT
    except ValueError as exc:
        # bad input data caught past parsing, e.g. a degenerate parcel
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    _write_outputs(config.output_dir, outputs)
    return EXIT_OK


def cmd_eda(table_path: str, output_dir: str) -> int:
    try:
        records = _parse_input(table_path, "attribute table", read_attribute_table)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        report, kept = run_eda(records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_INPUT
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(g.to_json())
    return EXIT_OK


def _parse_slr_list(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"invalid slr list {raw!r}") from None


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
            if args.slr:
                config.slr_list = _parse_slr_list(args.slr)
            if args.area_basis:
                config.area_basis = args.area_basis
            if args.out:
                config.output_dir = args.out
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        return cmd_assess(config)

    if args.command == "eda":
        return cmd_eda(args.table, args.out)

    raise AssertionError(f"unhandled command {args.command!r}")


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
