"""Base-flood and sea-level-rise scenario runs.

Each scenario adds a uniform rise to every cell's base flood elevation,
recomputes depths, and aggregates flooded area and damage. Percent deltas
follow the incremental-over-base formula: the k-th delta is the change from
the previous scenario divided by the base total.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geodata import DamageCurve, cell_damage
from .grid import GridSpec
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


def _sequential_total(x: np.ndarray, dry: bool) -> float:
    """The wet cells' values ``x`` added strictly left to right, as the row of
    every cell would be: each dry cell adds +0.0, so when some cell is ``dry``
    the sum starts at +0.0 (and an all -0.0 sum comes out +0.0).

    ``np.sum`` adds pairwise and can differ in the last bit.
    """
    with np.errstate(over="ignore"):
        return float(np.add.accumulate(np.concatenate(([0.0] if dry else [], x)))[-1])


def check_scenarios(slr_list, area_basis: str) -> None:
    """Raise ValueError unless ``slr_list`` is finite, nonempty, starts at 0 and
    strictly ascends, and ``area_basis`` is one of AREA_BASES."""
    if not all(math.isfinite(s) for s in slr_list):
        raise ValueError(f"slr list values must be finite, got {slr_list}")
    if not slr_list:
        raise ValueError("empty slr list")
    if slr_list[0] != 0:
        raise ValueError(f"first scenario must be the base flood (slr 0), got {slr_list[0]}")
    if any(not b > a for a, b in zip(slr_list, slr_list[1:])):
        raise ValueError("slr list must be strictly ascending")
    if area_basis not in AREA_BASES:
        raise ValueError(f"area_basis must be one of {AREA_BASES}, got {area_basis!r}")


def sweep(
    states: CellArrays,
    curve: DamageCurve,
    slr_list: list[float],
    area_basis: str = "parcel",
    cell_area: float = 0.0,
) -> list[ScenarioResult]:
    """Run the scenario list (base first) and attach percent deltas.

    A cell floods when its depth is positive; a missing elevation or BFE
    (NaN) never floods. A flooded cell contributes its whole exposed parcel
    area (or, under the ``cell`` basis, the full cell area) once, plus its
    damage. Totals add cells in row-major order. Scenarios run one at a
    time, each holding one depth per grid cell while it runs and keeping
    only its flooded cells, so memory grows with the wet cells, not with
    scenarios times cells.

    The arguments must pass ``check_scenarios``. Totals are checked for
    monotonicity in the rise: more water can never flood less. A flood
    depth or a total that overflows raises ValueError.
    """
    check_scenarios(slr_list, area_basis)
    if area_basis == "cell" and cell_area <= 0:
        raise ValueError("cell basis requires a positive cell_area")

    results = []
    for s in slr_list:
        with np.errstate(over="ignore"):
            depth = flood_depth(states.bfe, s, states.mean_elevation)
        cells = np.flatnonzero(depth > 0)
        dry = cells.size < depth.size
        depth = depth[cells]
        if not np.isfinite(depth).all():  # finite inputs whose difference overflows
            k = cells[np.argmin(np.isfinite(depth))]
            raise ValueError(f"flood depth of cell {k} at slr {s} is not finite")
        damage = cell_damage(states.exposed_value[cells], depth, curve)
        area = (states.exposed_area[cells] if area_basis == "parcel"
                else np.full(cells.size, cell_area))
        results.append(ScenarioResult(s, _sequential_total(damage, dry),
                                      _sequential_total(area, dry),
                                      cells=cells, depths=depth, damages=damage))
    total_damage = np.array([r.total_damage for r in results])
    total_area = np.array([r.total_flooded_area for r in results])
    bad = ~(np.isfinite(total_damage) & np.isfinite(total_area))
    if bad.any():
        raise ValueError(f"totals of scenario slr {slr_list[np.argmax(bad)]} are not finite")

    if not np.all(total_damage[1:] >= total_damage[:-1]):
        raise RuntimeError("damage decreased with rising sea level")
    if not np.all(total_area[1:] >= total_area[:-1]):
        raise RuntimeError("flooded area decreased with rising sea level")

    for r, cost, area in zip(results, incremental_deltas(total_damage.tolist()),
                             incremental_deltas(total_area.tolist())):
        r.cost_pct_delta, r.area_pct_delta = cost, area
    return results


def _json_number(v) -> str:
    """``v`` as json.dumps spells it: repr when finite, NaN/Infinity otherwise."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def flooded_cells_geojson(g: GridSpec, results: list[ScenarioResult]) -> Iterator[tuple[str, ...]]:
    """Yield per scenario a GeoJSON FeatureCollection of flooded cells as (head, body, tail).

    One square polygon per flooded cell with properties slr, depth, damage
    (damage rounded to cents at serialization). The bytes are those of
    ``json.dumps(doc, separators=(",", ":"))`` on the nested dicts: each
    ring is rendered once per call from json spellings of the cell_rect
    corners, then spliced into a fixed feature template with the scenario's
    ``slr`` (json-spelled, so int and float keep their form), ``depth`` and
    ``round(damage, 2)``. A document is rendered only when it is asked for,
    so the rings and one document are all that is held at a time.
    """
    xs = [json.dumps(g.origin_x + j * g.cell_size) for j in range(g.n_cols + 1)]
    ys = [json.dumps(g.origin_y + i * g.cell_size) for i in range(g.n_rows + 1)]
    # the union by bincount: np.unique's first call imports numpy.ma (~10 ms)
    cells = np.flatnonzero(np.bincount(
        np.concatenate([np.empty(0, np.int64), *(r.cells for r in results)]), minlength=g.n_cells))
    corners = ((xs[j], ys[i], xs[j + 1], ys[i + 1])
               for i, j in (divmod(k, g.n_cols) for k in cells.tolist()))
    heads = ['{"type":"Feature","geometry":{"type":"Polygon","coordinates":'
             f'[[[{x0},{y0}],[{x1},{y0}],[{x1},{y1}],[{x0},{y1}],[{x0},{y0}]]]}},'
             '"properties":{"slr":' for x0, y0, x1, y1 in corners]
    for r in results:
        slr = json.dumps(r.slr)
        yield ('{"type":"FeatureCollection","features":[',
               ",".join(f'{heads[k]}{slr},"depth":{_json_number(depth)},'
                        f'"damage":{_json_number(round(dmg, 2))}}}}}'
                        for k, depth, dmg in zip(np.searchsorted(cells, r.cells).tolist(),
                                                 r.depths.tolist(), r.damages.tolist())),
               "]}\n")
