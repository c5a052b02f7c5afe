"""Seeded input generators for the floodgrid benchmark workloads.

Every workload shares one study area: a 4900 x 980 ft extent whose ground
rises 0.015 ft per ft eastward plus N(0, 0.5) noise, with 1% NODATA samples,
and the damage curve [[0, 0], [2, 0.3], [10, 1]]. Sizes are fixed per
workload; the seed only moves noise, positions and shapes, so two seeds give
the same amount of work. Each parcel lies strictly inside the extent, so the
fishnet covers all of it and apportioned value must sum to the parcels' total
assessment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH = 4900.0
HEIGHT = 980.0
SLOPE = 0.015
NODATA = -9999
CURVE = "[[0, 0], [2, 0.3], [10, 1]]\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "assess" or "eda"
    dem_px: float = 10.0
    parcels: int = 0
    parcel_size: tuple[float, float] = (60.0, 220.0)
    multi_share: float = 0.0
    hole_share: float = 0.0
    bfe_zones: int = 0
    cell_size: float = 98.0
    slr: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    area_basis: str = "parcel"
    rows: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("dem_dense", "assess", dem_px=1.0, parcels=200),
        Workload("parcel_dense", "assess", parcels=10_000, parcel_size=(150.0, 320.0),
                 multi_share=0.1, hole_share=0.1),
        Workload("sweep_wide", "assess", parcels=150, parcel_size=(80.0, 240.0),
                 bfe_zones=100, cell_size=14.0,
                 slr=tuple(0.5 * k for k in range(21)), area_basis="cell"),
        Workload("eda_table", "eda", rows=200_000),
    )
}


def _dem_text(rng: np.random.Generator, px: float) -> tuple[str, int]:
    ncols, nrows = int(WIDTH / px), int(HEIGHT / px)
    xs = (np.arange(ncols) + 0.5) * px
    values = np.round(SLOPE * xs[None, :] + rng.normal(0.0, 0.5, (nrows, ncols)), 3)
    values[rng.random((nrows, ncols)) < 0.01] = NODATA
    row_fmt = " ".join(["%.3f"] * ncols)
    header = (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
              f"cellsize {px:g}\nnodata_value {NODATA}\n")
    return header + "\n".join(row_fmt % tuple(r) for r in values) + "\n", ncols * nrows


def _convex_ring(rng, cx, cy, rx, ry, n_min=4, n_max=8):
    """Counter-clockwise convex ring on an ellipse, closed GeoJSON-style."""
    n = int(rng.integers(n_min, n_max + 1))
    # evenly spaced angles with jitter keep every ring convex and non-degenerate
    angles = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (2 * math.pi / n)
    ring = [[cx + rx * math.cos(a), cy + ry * math.sin(a)] for a in angles]
    return ring + [ring[0]]


def _star_ring(rng, cx, cy, r, n):
    """Closed star-shaped ring with radii in [0.6 r, r]."""
    angles = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (2 * math.pi / n)
    radii = rng.uniform(0.6 * r, r, n)
    ring = [[cx + q * math.cos(a), cy + q * math.sin(a)] for q, a in zip(radii, angles)]
    return ring + [ring[0]]


def _polygon(rng, w: Workload):
    """One parcel polygon (outer ring, optional hole) strictly inside the extent."""
    lo, hi = w.parcel_size
    rx, ry = rng.uniform(lo, hi) / 2, rng.uniform(lo, hi) / 2
    cx = rng.uniform(rx + 1.0, WIDTH - rx - 1.0)
    cy = rng.uniform(ry + 1.0, HEIGHT - ry - 1.0)
    rings = [_convex_ring(rng, cx, cy, rx, ry)]
    if rng.random() < w.hole_share:
        # a convex ring scaled about the same center stays inside the outer one
        rings.append(_convex_ring(rng, cx, cy, 0.3 * rx, 0.3 * ry)[::-1])
    return rings


def _shoelace(ring) -> float:
    ox, oy = ring[0]
    return 0.5 * abs(sum((x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
                         for (x0, y0), (x1, y1) in zip(ring, ring[1:])))


def _parcels(rng, w: Workload) -> tuple[list[dict], int, float]:
    """Features, member (parcel) count, and total assessment."""
    features, members, total = [], 0, 0.0
    for k in range(w.parcels):
        polys = [_polygon(rng, w)]
        if rng.random() < w.multi_share:
            polys += [_polygon(rng, w) for _ in range(int(rng.integers(1, 3)))]
        area = sum(_shoelace(p[0]) - sum(_shoelace(h) for h in p[1:]) for p in polys)
        value = round(float(rng.uniform(5e4, 2e6)), 2)
        geometry = ({"type": "Polygon", "coordinates": polys[0]} if len(polys) == 1
                    else {"type": "MultiPolygon", "coordinates": polys})
        features.append({
            "type": "Feature",
            "geometry": geometry,
            "properties": {"parcel_id": f"p{k:05d}", "current_assessment": value,
                           "land_area": round(area * float(rng.uniform(0.9, 1.1)), 1)},
        })
        members += len(polys)
        total += value
    return features, members, total


def _bfe_zones(rng, w: Workload) -> list[dict]:
    if w.bfe_zones == 0:
        # two flat-BFE bands over the low western half
        return [_zone([[0, 0], [1200, 0], [1200, HEIGHT], [0, HEIGHT], [0, 0]], 5.0),
                _zone([[1200, 0], [2500, 0], [2500, HEIGHT], [1200, HEIGHT], [1200, 0]], 6.0)]
    zones = []
    for _ in range(w.bfe_zones):
        r = float(rng.uniform(80, 300))
        cx, cy = float(rng.uniform(0, 0.8 * WIDTH)), float(rng.uniform(0, HEIGHT))
        ring = _star_ring(rng, cx, cy, r, int(rng.integers(40, 49)))
        zones.append(_zone(ring, round(float(rng.uniform(2.0, 10.0)), 1)))
    return zones


def _zone(ring, bfe: float) -> dict:
    return {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"static_bfe": bfe}}


def _eda_table(rng, rows: int) -> tuple[str, dict]:
    """Attribute CSV text and the filter funnel recounted from its columns."""
    assessment = np.round(np.exp(rng.normal(12.0, 1.0, rows)), 2)
    land = np.round(rng.uniform(2_000, 40_000, rows), 1)
    shape = np.round(land * rng.uniform(0.7, 1.3, rows), 1)
    flood = np.where(rng.random(rows) < 0.8, np.round(rng.uniform(1, 12, rows), 1), 0.0)
    lines = ["parcel_id,current_assessment,land_area,shape_area,base_flood"]
    lines += [f"r{k:06d},{a!r},{la!r},{s!r},{f!r}"
              for k, (a, la, s, f) in enumerate(zip(assessment.tolist(), land.tolist(),
                                                    shape.tolist(), flood.tolist()))]
    keep = assessment > 10_000
    funnel = {"input": rows, "min_assessment": int(keep.sum())}
    keep &= (land > 0) & (assessment / land > 1)
    funnel["min_price_per_sqft"] = int(keep.sum())
    keep &= flood > 0
    funnel["positive_base_flood"] = int(keep.sum())
    keep &= shape / land * assessment > 0
    funnel["positive_area_cost"] = int(keep.sum())
    return "\n".join(lines) + "\n", funnel


def generate(w: Workload, seed: int, root: Path) -> dict:
    """Write the workload's inputs under ``root`` and return what was made.

    The returned dict holds the CLI arguments (relative to ``root``), the
    input sizes, and the facts the output checks need.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    root.mkdir(parents=True, exist_ok=True)
    if w.command == "eda":
        text, funnel = _eda_table(rng, w.rows)
        (root / "table.csv").write_text(text)
        return {"argv": ["eda", "--table", "table.csv", "--out", "{out}"],
                "sizes": {"table_bytes": len(text), "rows": w.rows}, "funnel": funnel}

    dem, samples = _dem_text(rng, w.dem_px)
    (root / "dem.asc").write_text(dem)
    features, members, total = _parcels(rng, w)
    (root / "parcels.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}))
    (root / "bfe.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": _bfe_zones(rng, w)}))
    (root / "curve.json").write_text(CURVE)
    (root / "run.json").write_text(json.dumps({
        "dem_path": "dem.asc", "parcels_path": "parcels.geojson",
        "bfe_path": "bfe.geojson", "damage_curve_path": "curve.json",
        "cell_size": w.cell_size, "slr_list": list(w.slr), "area_basis": w.area_basis,
    }))
    n_cells = math.ceil(WIDTH / w.cell_size) * math.ceil(HEIGHT / w.cell_size)
    return {
        "argv": ["assess", "--config", "run.json", "--out", "{out}"],
        "sizes": {"dem_bytes": len(dem), "dem_samples": samples, "parcels": w.parcels,
                  "members": members, "cells": n_cells, "scenarios": len(w.slr)},
        "total_assessment": total,
        "features": features,
    }
