"""Scenario runs, sweeps, delta arithmetic, and the flooded-cell GeoJSON."""

import json
import logging

import numpy as np
import pytest

from floodgrid.geodata import DamageCurve, Raster
from floodgrid.grid import GridSpec
from floodgrid.overlay import ATTRIBUTION_DTYPE
from floodgrid.scenario import (
    flooded_cells_geojson,
    incremental_deltas,
    sweep,
)
from floodgrid.terrain import CellArrays, build_cell_states, zonal_mean_elevation

LINEAR = DamageCurve([(0.0, 0.0), (10.0, 1.0)])

TABLE1_COSTS = [106302284.38, 120128690.11, 134354291.56, 148673644.61]
TABLE1_AREAS = [49073440.0, 51916752.0, 54985504.0, 58003842.0]


def cell_arrays(elev, bfe, value, area):
    """CellArrays from per-cell lists; None marks a missing elevation or BFE."""
    def column(xs):
        return np.array([np.nan if x is None else x for x in xs], dtype=float)
    return CellArrays(column(elev), column(bfe), column(value), column(area))


def one_cell_states(bfe=10.0, elev=7.0, value=100_000.0, area=9_604.0):
    return cell_arrays([elev], [bfe], [value], [area])


def run_one(states, slr, **kwargs):
    """The result for a single rise ``slr`` (the base flood when 0)."""
    return sweep(states, LINEAR, [0.0, slr] if slr else [0.0], **kwargs)[-1]


class TestRunScenario:
    def test_single_cell_base(self):
        res = run_one(one_cell_states(), 0.0)
        assert res.total_damage == pytest.approx(30_000, rel=1e-12)
        assert res.total_flooded_area == 9_604.0
        assert res.cells.tolist() == [0]
        assert res.depths.tolist() == [3.0]

    def test_single_cell_slr1(self):
        res = run_one(one_cell_states(), 1.0)
        assert res.total_damage == pytest.approx(40_000, rel=1e-12)
        assert res.total_flooded_area == 9_604.0

    def test_no_bfe_means_no_flooding(self):
        res = run_one(one_cell_states(bfe=None), 3.0)
        assert (res.total_damage, res.total_flooded_area) == (0.0, 0.0)
        assert res.cells.size == 0

    def test_no_elevation_means_no_flooding(self):
        res = run_one(one_cell_states(elev=None), 3.0)
        assert (res.total_damage, res.total_flooded_area) == (0.0, 0.0)

    def test_dry_cell_not_counted(self):
        res = run_one(one_cell_states(bfe=5.0, elev=7.0), 0.0)
        assert (res.total_damage, res.total_flooded_area) == (0.0, 0.0)

    def test_cell_area_basis(self):
        res = run_one(one_cell_states(area=100.0), 0.0, area_basis="cell", cell_area=9_604.0)
        assert res.total_flooded_area == 9_604.0

    def test_cell_basis_requires_cell_area(self):
        with pytest.raises(ValueError, match="cell_area"):
            run_one(one_cell_states(), 0.0, area_basis="cell")

    def test_unknown_basis(self):
        with pytest.raises(ValueError, match="area_basis"):
            run_one(one_cell_states(), 0.0, area_basis="acre")

    def test_per_cell_sorted(self):
        states = cell_arrays([1.0] * 9, [5.0] * 9, [10.0] * 9, [1.0] * 9)
        res = run_one(states, 0.0)
        cells = res.cells.tolist()
        assert cells == sorted(cells)

    def test_nan_dem_sample_never_floods(self):
        # 25 samples 8.0 ft above a 5-ft BFE; one NaN among them must not
        # turn the cell's mean into NaN and charge it full damage
        g = GridSpec(0, 0, 50, 1, 1)
        values = np.full(25, 8.0)
        values[12] = np.nan
        dem = Raster(5, 5, 0, 0, 10, -9999, values)
        no_attributions = np.empty(0, dtype=ATTRIBUTION_DTYPE)
        states = build_cell_states(g, no_attributions, zonal_mean_elevation(dem, g),
                                   np.array([5.0]))
        states.exposed_value[:] = 12_500.0
        states.exposed_area[:] = 2_500.0
        res = run_one(states, 0.0)
        assert (res.total_damage, res.total_flooded_area) == (0.0, 0.0)

    def test_totals_are_sequential_row_major_sums(self):
        # np.sum adds pairwise and differs in the last bit on these 16 cells;
        # the sweep must reproduce a plain left-to-right loop
        rng = np.random.default_rng(0)
        n = 16
        states = cell_arrays([0.0] * n, [5.0] * n, rng.uniform(0, 1e6, n).tolist(),
                             rng.uniform(0, 1e4, n).tolist())
        res = run_one(states, 2.0)
        damages = (states.exposed_value * 0.7).tolist()
        assert res.damages.tolist() == damages
        total_damage = total_area = 0.0
        for dmg, area in zip(damages, states.exposed_area.tolist()):
            total_damage += dmg
            total_area += area
        assert res.total_damage == total_damage
        assert res.total_flooded_area == total_area
        assert float(np.sum(damages)) != total_damage
        assert float(np.sum(states.exposed_area)) != total_area


class TestIncrementalDeltas:
    def test_reproduces_table1(self):
        cost = incremental_deltas(TABLE1_COSTS)
        area = incremental_deltas(TABLE1_AREAS)
        assert cost[0] is None and area[0] is None
        for got, printed in zip(cost[1:], [0.1301, 0.1338, 0.1347]):
            assert got == pytest.approx(printed, abs=5e-5)
        for got, printed in zip(area[1:], [0.0579, 0.0625, 0.0615]):
            assert got == pytest.approx(printed, abs=5e-5)

    def test_identical_totals_zero_deltas(self):
        assert incremental_deltas([5.0, 5.0, 5.0]) == [None, 0.0, 0.0]

    def test_all_zero_totals(self):
        assert incremental_deltas([0.0, 0.0, 0.0]) == [None, 0.0, 0.0]

    def test_zero_base_nonzero_later(self, caplog):
        with caplog.at_level(logging.WARNING):
            deltas = incremental_deltas([0.0, 3.0])
        assert deltas == [None, None]
        assert "deltas undefined" in caplog.text


class TestSweep:
    def test_single_cell_sweep(self):
        results = sweep(one_cell_states(), LINEAR, [0.0, 1.0, 2.0])
        assert [r.slr for r in results] == [0.0, 1.0, 2.0]
        assert results[0].cost_pct_delta is None
        assert results[0].area_pct_delta is None
        # depth 3 -> 4: +10,000 over base 30,000
        assert results[1].cost_pct_delta == pytest.approx(1 / 3, rel=1e-9)
        assert results[1].area_pct_delta == 0.0

    def test_base_only(self):
        results = sweep(one_cell_states(), LINEAR, [0.0])
        assert len(results) == 1
        assert results[0].cost_pct_delta is None

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(one_cell_states(), LINEAR, [])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="base flood"):
            sweep(one_cell_states(), LINEAR, [1.0, 2.0])

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep(one_cell_states(), LINEAR, [0.0, 2.0, 1.0])

    def test_totals_monotone_on_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            elev, bfe, value, area = [], [], [], []
            for _ in range(25):
                has_elev = rng.random() > 0.2
                has_bfe = rng.random() > 0.2
                elev.append(float(rng.uniform(0, 15)) if has_elev else None)
                bfe.append(float(rng.uniform(0, 12)) if has_bfe else None)
                value.append(float(rng.uniform(0, 1e6)))
                area.append(float(rng.uniform(0, 9604)))
            states = cell_arrays(elev, bfe, value, area)
            results = sweep(states, LINEAR, [0.0, 1.0, 2.0, 3.0])
            damages = [r.total_damage for r in results]
            areas = [r.total_flooded_area for r in results]
            assert damages == sorted(damages)
            assert areas == sorted(areas)
            flooded_sets = [set(r.cells.tolist()) for r in results]
            for small, big in zip(flooded_sets, flooded_sets[1:]):
                assert small <= big

    def test_workers_do_not_change_results(self):
        # one pass, no workers: a repeated sweep must give the same totals
        # and must leave its input arrays untouched
        states = one_cell_states()
        before = [c.copy() for c in (states.mean_elevation, states.bfe,
                                     states.exposed_value, states.exposed_area)]
        first = sweep(states, LINEAR, [0.0, 1.0, 2.0, 3.0])
        again = sweep(states, LINEAR, [0.0, 1.0, 2.0, 3.0])
        assert [(r.slr, r.total_damage, r.total_flooded_area) for r in first] == \
               [(r.slr, r.total_damage, r.total_flooded_area) for r in again]
        after = (states.mean_elevation, states.bfe, states.exposed_value, states.exposed_area)
        assert all(np.array_equal(b, a) for b, a in zip(before, after))

    def test_decreasing_totals_raise(self):
        # validation forbids a falling curve; force one past it so the
        # monotonicity check fires (it must survive python -O)
        curve = DamageCurve([(0.0, 0.0), (10.0, 1.0)])
        curve.breakpoints = [(0.0, 1.0), (10.0, 0.0)]
        with pytest.raises(RuntimeError, match="damage decreased"):
            sweep(one_cell_states(), curve, [0.0, 1.0])


class TestFloodedCellsGeojson:
    def test_structure_and_properties(self):
        g = GridSpec(0, 0, 98, 2, 2)
        states = one_cell_states()
        res = run_one(states, 1.0)
        doc = json.loads(flooded_cells_geojson(g, res))
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 1
        feat = doc["features"][0]
        assert feat["geometry"]["type"] == "Polygon"
        ring = feat["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1] == [0, 0]
        assert feat["properties"]["slr"] == 1.0
        assert feat["properties"]["depth"] == 4.0
        assert feat["properties"]["damage"] == 40000.0

    def test_empty_scenario(self):
        g = GridSpec(0, 0, 98, 2, 2)
        res = run_one(one_cell_states(bfe=5.0, elev=7.0), 0.0)
        doc = json.loads(flooded_cells_geojson(g, res))
        assert doc["features"] == []

    def test_zero_exposure_flooded_cell_included(self):
        g = GridSpec(0, 0, 98, 1, 1)
        states = one_cell_states(value=0.0, area=0.0)
        res = run_one(states, 0.0)
        assert res.total_flooded_area == 0.0
        doc = json.loads(flooded_cells_geojson(g, res))
        assert len(doc["features"]) == 1
