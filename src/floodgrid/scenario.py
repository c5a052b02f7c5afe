"""Base-flood and sea-level-rise scenario runs.

Each scenario adds a uniform rise to every cell's base flood elevation,
recomputes depths, and aggregates flooded area and damage. Percent deltas
follow the incremental-over-base formula: the k-th delta is the change from
the previous scenario divided by the base total.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .damage import cell_damage
from .geodata import DamageCurve
from .grid import GridSpec, cell_rect
from .terrain import CellArrays, flood_depth

logger = logging.getLogger(__name__)

AREA_BASES = ("parcel", "cell")


@dataclass
class ScenarioResult:
    """Totals and per-cell detail for one sea-level-rise scenario.

    ``cells`` holds the row-major indices of the flooded cells, ascending;
    ``depths`` and ``damages`` are aligned with it.
    """

    slr: float
    total_damage: float
    total_flooded_area: float
    cost_pct_delta: float | None = None
    area_pct_delta: float | None = None
    cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    depths: np.ndarray = field(default_factory=lambda: np.empty(0))
    damages: np.ndarray = field(default_factory=lambda: np.empty(0))


def incremental_deltas(totals: list[float]) -> list[float | None]:
    """Per-scenario deltas: (T_k - T_{k-1}) / T_base, base entry absent.

    This is the reading that reproduces every printed delta in the source
    risk table. A base total of 0 with nonzero later totals makes the deltas
    undefined; they come back absent with a warning. All-zero totals give 0.
    """
    base = totals[0]
    deltas: list[float | None] = [None]
    if base == 0:
        if any(t != 0 for t in totals[1:]):
            logger.warning("base total is 0 but later totals are nonzero; deltas undefined")
            deltas.extend(None for _ in totals[1:])
        else:
            deltas.extend(0.0 for _ in totals[1:])
        return deltas
    prev = base
    for t in totals[1:]:
        deltas.append((t - prev) / base)
        prev = t
    return deltas


def _sequential_totals(x: np.ndarray) -> np.ndarray:
    """Row sums added strictly left to right, as a ``total += v`` loop would.

    ``np.sum`` adds pairwise and can differ in the last bit.
    """
    return np.add.accumulate(x, axis=1)[:, -1]


def sweep(
    states: CellArrays,
    curve: DamageCurve,
    slr_list: list[float],
    area_basis: str = "parcel",
    cell_area: float = 0.0,
) -> list[ScenarioResult]:
    """Run the scenario list (base first) in one pass and attach percent deltas.

    A cell floods when its depth is positive; a missing elevation or BFE
    (NaN) never floods. A flooded cell contributes its whole exposed parcel
    area (or, under the ``cell`` basis, the full cell area) once, plus its
    damage. Totals add cells in row-major order.

    ``slr_list`` must be strictly ascending and start at 0. Totals are
    checked for monotonicity in the rise: more water can never flood less.
    """
    if not slr_list:
        raise ValueError("empty slr list")
    if slr_list[0] != 0:
        raise ValueError(f"first scenario must be the base flood (slr 0), got {slr_list[0]}")
    if any(not b > a for a, b in zip(slr_list, slr_list[1:])):
        raise ValueError("slr list must be strictly ascending")
    if area_basis not in AREA_BASES:
        raise ValueError(f"area_basis must be one of {AREA_BASES}, got {area_basis!r}")
    if area_basis == "cell" and cell_area <= 0:
        raise ValueError("cell basis requires a positive cell_area")

    slr = np.asarray(slr_list, dtype=float)
    depth = flood_depth(states.bfe, slr[:, None], states.mean_elevation)
    flooded = depth > 0
    damage = cell_damage(states.exposed_value, depth, curve)
    area = np.where(flooded, states.exposed_area if area_basis == "parcel" else cell_area, 0.0)
    total_damage = _sequential_totals(damage)
    total_area = _sequential_totals(area)

    if not np.all(total_damage[1:] >= total_damage[:-1]):
        raise RuntimeError("damage decreased with rising sea level")
    if not np.all(total_area[1:] >= total_area[:-1]):
        raise RuntimeError("flooded area decreased with rising sea level")

    cost_deltas = incremental_deltas(total_damage.tolist())
    area_deltas = incremental_deltas(total_area.tolist())
    results = []
    for k, s in enumerate(slr_list):
        cells = np.flatnonzero(flooded[k])
        results.append(ScenarioResult(
            slr=s,
            total_damage=float(total_damage[k]),
            total_flooded_area=float(total_area[k]),
            cost_pct_delta=cost_deltas[k],
            area_pct_delta=area_deltas[k],
            cells=cells,
            depths=depth[k, cells],
            damages=damage[k, cells],
        ))
    return results


def flooded_cells_geojson(g: GridSpec, result: ScenarioResult) -> str:
    """GeoJSON FeatureCollection of flooded cells for external map rendering.

    One square polygon per flooded cell with properties slr, depth, damage
    (damage rounded to cents at serialization).
    """
    features = []
    for idx, depth, dmg in zip(result.cells.tolist(), result.depths.tolist(),
                               result.damages.tolist()):
        xmin, ymin, xmax, ymax = cell_rect(g, *divmod(idx, g.n_cols))
        ring = [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax], [xmin, ymin]]
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {
                "slr": result.slr,
                "depth": depth,
                "damage": round(dmg, 2),
            },
        })
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, separators=(",", ":")) + "\n"
