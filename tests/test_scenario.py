"""Scenario runs, sweeps, delta arithmetic, and the flooded-cell GeoJSON."""

import json
import logging
import tracemalloc

import numpy as np
import pytest

from floodgrid.geodata import DamageCurve, Raster, cell_damage, write_report
from floodgrid.terrain import (
    ATTRIBUTION_DTYPE,
    CellArrays,
    GridSpec,
    ScenarioResult,
    build_cell_states,
    cell_rect,
    flood_depth,
    flooded_cells_geojson,
    incremental_deltas,
    sweep,
    zonal_mean_elevation,
)

LINEAR = DamageCurve([(0.0, 0.0), (10.0, 1.0)])
# a valid curve whose first fraction is -0.0: a cell under 1 ft deep loses -0.0
NEGATIVE_ZERO = DamageCurve([(1.0, -0.0), (2.0, 0.5)])

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
        # a negative exposed value (which build_cell_states never gives) loses
        # more as the water rises, so the monotonicity check fires (it must
        # survive python -O)
        with pytest.raises(RuntimeError, match="damage decreased"):
            sweep(one_cell_states(value=-100_000.0), LINEAR, [0.0, 1.0])

    def test_fraction_rounding_past_a_breakpoint_keeps_totals_monotone(self):
        # at depth 10, 0.3 + (0.9 - 0.3) rounds an ulp above 0.9, where the next
        # segment starts: so 1e-15 ft more water once lowered the damage
        curve = DamageCurve([(0, 0), (7, 0.3), (10, 0.9), (16, 1.0)])
        states = one_cell_states(bfe=10.0, elev=0.0, value=1_000_000.0, area=400.0)
        results = sweep(states, curve, [0.0, 1e-15])
        assert [r.total_damage for r in results] == [900_000.0, 900_000.0]

    def test_decreasing_flooded_area_raises(self):
        # the second cell floods only at the higher rise, and its negative
        # exposed area (which build_cell_states never gives) shrinks the total
        states = cell_arrays([7.0, 10.5], [10.0, 10.0], [0.0, 0.0], [1.0, -2.0])
        with pytest.raises(RuntimeError, match="flooded area decreased"):
            sweep(states, LINEAR, [0.0, 1.0])


    def test_overflowing_total_names_scenario(self):
        # each cell's damage is finite; their sum overflows once both are total losses
        states = cell_arrays([7.0, 7.0], [10.0, 10.0], [1e308, 1e308], [1.0, 1.0])
        assert np.isfinite(sweep(states, LINEAR, [0.0, 1.0])[-1].total_damage)
        with pytest.raises(ValueError, match="totals of scenario slr 7.0 are not finite"):
            sweep(states, LINEAR, [0.0, 1.0, 7.0])


def dense_sweep(states, curve, slr_list, area_basis="parcel", cell_area=0.0):
    """The sweep as (scenario, cell) arrays, each dry entry +0.0 and each row
    added left to right: the reference for ``sweep``'s wet cells only pass."""
    depth = flood_depth(states.bfe, np.asarray(slr_list, dtype=float)[:, None],
                        states.mean_elevation)
    flooded = depth > 0
    damage = cell_damage(states.exposed_value, depth, curve)
    area = np.where(flooded, states.exposed_area if area_basis == "parcel" else cell_area, 0.0)
    totals = [np.add.accumulate(x, axis=1)[:, -1].tolist() for x in (damage, area)]
    return [ScenarioResult(s, d, a, cd, ad, cells=np.flatnonzero(f), depths=dep[f],
                           damages=dmg[f])
            for s, d, a, cd, ad, f, dep, dmg in zip(slr_list, *totals,
                                                    *map(incremental_deltas, totals),
                                                    flooded, depth, damage)]


def exact(r: ScenarioResult):
    """Every field of ``r``: floats by repr, arrays by dtype and bytes."""
    return (repr(r.slr), repr(r.total_damage), repr(r.total_flooded_area),
            repr(r.cost_pct_delta), repr(r.area_pct_delta),
            *((a.dtype.str, a.tobytes()) for a in (r.cells, r.depths, r.damages)))


def random_states(seed, n=200):
    rng = np.random.default_rng(seed)
    elev, bfe = rng.uniform(0, 6, n), rng.uniform(0, 6, n)
    elev[rng.random(n) < 0.1] = np.nan
    bfe[rng.random(n) < 0.1] = np.nan
    return CellArrays(elev, bfe, rng.uniform(0, 1e6, n), rng.uniform(0, 1e4, n))


class TestSparseSweep:
    """``sweep`` works on each scenario's wet cells only; it must give the
    dense arithmetic's results bit for bit, signed zeros included."""

    CASES = {
        "parcel basis, NaN elevations and BFEs": (random_states(1), LINEAR, {}),
        "cell basis, NaN elevations and BFEs": (random_states(2), LINEAR,
                                                {"area_basis": "cell", "cell_area": 9_604.0}),
        "no wet cell": (cell_arrays([9.0] * 5, [1.0, None, 2.0, 0.0, 1.5], [1e5] * 5,
                                    [10.0] * 5), LINEAR, {}),
        "every cell wet": (cell_arrays([0.0, 1.0, 2.0], [5.0] * 3, [1e5, 2e5, 3e5],
                                       [1.0, 2.0, 3.0]), LINEAR, {}),
        "-0.0 damages, one cell dry": (cell_arrays([4.5, 4.75, 9.0], [5.0] * 3, [1e5] * 3,
                                                   [100.0] * 3), NEGATIVE_ZERO, {}),
        "-0.0 damages, every cell wet": (cell_arrays([4.5, 4.75], [5.0] * 2, [1e5] * 2,
                                                     [100.0] * 2), NEGATIVE_ZERO, {}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_dense_sweep(self, case):
        states, curve, kwargs = self.CASES[case]
        slr_list = [0.0, 0.25, 0.5, 2.0, 3.0] if curve is LINEAR else [0.0, 0.25]
        got = sweep(states, curve, slr_list, **kwargs)
        assert [exact(r) for r in got] == \
               [exact(r) for r in dense_sweep(states, curve, slr_list, **kwargs)]

    def test_negative_zero_damage_beside_a_dry_cell_reports_zero(self):
        # a dry cell adds +0.0 to the total, so the wet cells' -0.0 sums to +0.0
        states = cell_arrays([4.5, 9.0], [5.0, 5.0], [1e5, 1e5], [100.0, 100.0])
        assert write_report(sweep(states, NEGATIVE_ZERO, [0.0, 0.25])) == (
            "scenario,total_flooding_usd,total_area_flooded_sqft,cost_pct_delta,area_pct_delta\n"
            "0,0.00,100,,\n"
            "0.25,0.00,100,0.00,0.00\n")


class TestSweepMemory:
    """Each scenario holds its depth over the grid only while it runs and
    keeps its wet cells alone, so on a dry grid the sweep's peak does not
    grow with the scenarios."""

    N = 20_000

    def peak_bytes(self, n_scenarios):
        states = CellArrays(np.full(self.N, 50.0), np.zeros(self.N), np.full(self.N, 1e5),
                            np.full(self.N, 100.0))
        tracemalloc.start()
        try:
            results = sweep(states, LINEAR, [float(k) for k in range(n_scenarios)])
            assert all(r.cells.size == 0 for r in results)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dry_grid_peak_does_not_grow_with_the_scenarios(self):
        peaks = {n: self.peak_bytes(n) for n in (2, 40)}
        # a kept result is the dataclass and three empty arrays
        assert peaks[40] - peaks[2] <= 38 * 2048
        # a scenario's bfe + slr, its depths and its wet mask, plus an allowance
        assert max(peaks.values()) <= 3 * 8 * self.N + 64 * 1024


class TestFloodedCellsGeojson:
    def test_structure_and_properties(self):
        g = GridSpec(0, 0, 98, 2, 2)
        states = one_cell_states()
        res = run_one(states, 1.0)
        doc = json.loads("".join(list(flooded_cells_geojson(g, [res]))[0]))
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
        doc = json.loads("".join(list(flooded_cells_geojson(g, [res]))[0]))
        assert doc["features"] == []

    def test_zero_exposure_flooded_cell_included(self):
        g = GridSpec(0, 0, 98, 1, 1)
        states = one_cell_states(value=0.0, area=0.0)
        res = run_one(states, 0.0)
        assert res.total_flooded_area == 0.0
        doc = json.loads("".join(list(flooded_cells_geojson(g, [res]))[0]))
        assert len(doc["features"]) == 1

    def test_one_document_per_scenario(self):
        g = GridSpec(0, 0, 98, 1, 1)
        results = sweep(one_cell_states(bfe=5.0, elev=6.0), LINEAR, [0.0, 1.0, 2.0])
        docs = ["".join(d) for d in flooded_cells_geojson(g, results)]
        assert [len(json.loads(d)["features"]) for d in docs] == [0, 0, 1]
        assert list(flooded_cells_geojson(g, [])) == []


def dict_geojson(g: GridSpec, result: ScenarioResult) -> str:
    """One feature dict per flooded cell through json.dumps: the oracle for
    flooded_cells_geojson's templated bytes."""
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


class TestGeojsonBytes:
    """flooded_cells_geojson must equal the dict + json.dumps writer byte for byte."""

    GRIDS = [
        GridSpec(0, 0, 98, 7, 5),                        # integer corners
        GridSpec(0.0, 0.0, 98.0, 7, 5),                  # the same as floats
        GridSpec(-1234.567, 89.01, 13.7, 9, 4),          # non-integral corners
        GridSpec(2.5e6, 1.0e5 / 3, 0.1, 6, 6),           # long reprs
    ]

    def assert_same(self, g, results):
        docs = list(flooded_cells_geojson(g, results))  # each rendered after all are taken
        assert ["".join(doc) for doc in docs] == [dict_geojson(g, r) for r in results]

    @pytest.mark.parametrize("g", GRIDS)
    @pytest.mark.parametrize("slr_list", [[0, 1, 2], [0.0, 0.5, 1.25, 3.0]])
    def test_sweep_results(self, g, slr_list):
        rng = np.random.default_rng(len(slr_list) + g.n_cols)
        n = g.n_cells
        elev = rng.uniform(0, 6, n)
        bfe = rng.uniform(0, 6, n)
        bfe[rng.random(n) < 0.2] = np.nan
        states = cell_arrays(elev, bfe, rng.uniform(0, 1e6, n), rng.uniform(0, 1e4, n))
        results = sweep(states, LINEAR, slr_list)
        assert results[-1].cells.size > results[0].cells.size > 0
        self.assert_same(g, results)

    @pytest.mark.parametrize("g", GRIDS)
    def test_unnested_scenarios(self, g):
        # flooded sets that neither grow nor shrink still map each cell to its own ring
        rng = np.random.default_rng(g.n_rows)
        results = []
        for slr in (0, 1.5, 3):
            cells = np.flatnonzero(rng.random(g.n_cells) < 0.4)
            results.append(ScenarioResult(slr, 0.0, 0.0, cells=cells,
                                          depths=rng.uniform(0, 5, cells.size),
                                          damages=rng.uniform(0, 1e5, cells.size)))
        self.assert_same(g, results)

    def test_extreme_finite_values(self):
        # sweep keeps depths and damages finite; the extremes are spelled as json does
        g = GridSpec(0, 0, 98, 3, 1)
        cells = np.array([0, 1, 2])
        res = ScenarioResult(1.0, 0.0, 0.0, cells=cells,
                             depths=np.array([1.7976931348623157e308, 2.0, 5e-324]),
                             damages=np.array([5.0, 1e308, -0.0]))
        doc = "".join(list(flooded_cells_geojson(g, [res]))[0])
        assert '"depth":1.7976931348623157e+308' in doc and '"depth":5e-324' in doc
        assert '"damage":1e+308' in doc and '"damage":-0.0' in doc
        self.assert_same(g, [res])

    def test_half_cent_damages(self):
        # values on or next to a round(., 2) half-cent boundary
        damages = np.array([0.125, 0.135, 0.005, 1.005, 2.675, 1e6 + 0.005,
                            12345.675, 0.0, 5e-324, 1e17 + 0.5])
        g = GridSpec(0, 0, 10, damages.size, 1)
        cells = np.arange(damages.size)
        res = ScenarioResult(2.0, 0.0, 0.0, cells=cells,
                             depths=np.full(damages.size, 0.5), damages=damages)
        self.assert_same(g, [res])

    def test_empty_scenarios(self):
        g = GridSpec(0.5, 0.5, 98, 2, 2)
        empty = ScenarioResult(0, 0.0, 0.0)
        full = ScenarioResult(1, 0.0, 0.0, cells=np.array([3]),
                              depths=np.array([0.25]), damages=np.array([7.0]))
        self.assert_same(g, [empty, full, empty])
        empty_doc = '{"type":"FeatureCollection","features":[]}\n'
        assert ["".join(d) for d in flooded_cells_geojson(g, [empty])] == [empty_doc]



@pytest.mark.parametrize("slr_list", [[0.0, float("inf")], [0.0, float("nan")],
                                      [float("-inf"), 0.0]])
def test_sweep_rejects_non_finite_rise(slr_list):
    with pytest.raises(ValueError, match="slr list values must be finite"):
        sweep(one_cell_states(), LINEAR, slr_list)
