"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.

Criterion 2 checks the tilted-plane coastline at the resolution the grid can
resolve. On z = 0.02*x with 98-ft cells, column j has mean elevation
1.96*j + 0.98 ft, so flooded area is quantised in whole columns and a 1-ft
rise floods a new column only every other step. The test therefore requires
the exact column count the geometry gives, strict growth of flooded area
only between rises that differ by more than one column step (1.96 ft), and
strict growth of total damage on every 1-ft rise. The supplementary test at
the bottom shows that flooded area grows on every increment when the
geometry permits it (0.01 slope).
"""

import json
import math
import time
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    attributed_areas,
    brute_force_zonal_means,
    cell_map,
    mc_cell_areas,
    ols_normal_equations,
    polygon,
    polygon_area,
    random_l_ring,
    random_raster,
    random_simple_parcel,
)
from floodgrid import geodata
from floodgrid.cli import EXIT_OK, main
from floodgrid.damage import cell_damage
from floodgrid.eda import CHI2_1DF_5PCT, breusch_pagan, ols_fit
from floodgrid.geodata import (
    DamageCurve,
    ParcelTable,
    Raster,
    parse_ascii_grid,
    write_ascii_grid,
    write_report,
)
from floodgrid.grid import GridSpec, make_fishnet
from floodgrid.overlay import apportion_many
from floodgrid.scenario import ScenarioResult, incremental_deltas, sweep
from floodgrid.terrain import assign_bfe, build_cell_states, zonal_mean_elevation
from floodgrid.geodata import BfeZone

LINEAR_CURVE = DamageCurve([(0.0, 0.0), (10.0, 1.0)])


def report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------
# C1: Table 1 delta reproduction
# ---------------------------------------------------------------------------

def test_c1_table1_delta_reproduction():
    t0 = time.perf_counter()
    costs = [106302284.38, 120128690.11, 134354291.56, 148673644.61]
    areas = [49073440.0, 51916752.0, 54985504.0, 58003842.0]
    cost_deltas = incremental_deltas(costs)
    area_deltas = incremental_deltas(areas)
    elapsed = time.perf_counter() - t0

    expected_cost = [0.1301, 0.1338, 0.1347]
    expected_area = [0.0579, 0.0625, 0.0615]
    ok = True
    for got, want in zip(cost_deltas[1:], expected_cost):
        ok &= abs(got - want) <= 5e-5
    for got, want in zip(area_deltas[1:], expected_area):
        ok &= abs(got - want) <= 5e-5
    ok &= elapsed < 1.0

    report("C1", ok, f"(six printed deltas reproduced, {elapsed * 1e3:.1f} ms)")
    for got, want in zip(cost_deltas[1:], expected_cost):
        assert abs(got - want) <= 5e-5, (got, want)
    for got, want in zip(area_deltas[1:], expected_area):
        assert abs(got - want) <= 5e-5, (got, want)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# C2: synthetic-coast analytic check
# ---------------------------------------------------------------------------

def coast_pipeline(slope: float):
    """Tilted-plane pipeline: z = slope*x on 4,900 x 980 ft, 2-ft pixels,
    uniform BFE 5 ft, one 98x98-ft parcel tiling each cell."""
    ncols, nrows, px = 2450, 490, 2.0
    xs = (np.arange(ncols) + 0.5) * px
    dem = Raster(ncols, nrows, 0.0, 0.0, px, -9999.0, np.tile(slope * xs, (nrows, 1)))
    g = make_fishnet(dem.bbox(), 98.0)

    parcels = []
    for i in range(g.n_rows):
        for j in range(g.n_cols):
            x0, y0 = j * 98.0, i * 98.0
            parcels.append(polygon(
                f"t{i:02d}_{j:02d}",
                [(x0, y0), (x0 + 98, y0), (x0 + 98, y0 + 98), (x0, y0 + 98)],
                100_000.0, 9_604.0,
            ))
    zone = BfeZone(rings=[[(0.0, 0.0), (4900.0, 0.0), (4900.0, 980.0), (0.0, 980.0)]],
                   static_bfe=5.0)

    states = build_cell_states(
        g,
        apportion_many(ParcelTable(parcels), g),
        zonal_mean_elevation(dem, g),
        assign_bfe(g, [zone]),
    )
    return sweep(states, LINEAR_CURVE, [0.0, 1.0, 2.0, 3.0]), slope


def test_c2_synthetic_coast():
    t0 = time.perf_counter()
    results, slope = coast_pipeline(0.02)
    elapsed = time.perf_counter() - t0

    # Geometry of coast_pipeline: 50 columns of 98-ft cells, 10 rows, BFE 5 ft.
    cell, n_cols, bfe = 98.0, 50, 5.0
    column_area = cell * 980.0
    slrs = [0.0, 1.0, 2.0, 3.0]
    assert [r.slr for r in results] == slrs
    engine = [r.total_flooded_area for r in results]
    damages = [r.total_damage for r in results]

    # Within one column of the continuous shoreline x = (BFE + slr) / slope.
    analytic = [(bfe + s) / slope * 980.0 for s in slrs]
    diffs = [abs(e - a) for e, a in zip(engine, analytic)]
    within_column = all(d <= column_area for d in diffs)

    # Exact column-quantised area: a column floods iff its mean elevation
    # lies below the flood level. Every column mean is at least 0.10 ft from
    # every flood level, so float rounding cannot flip a column.
    column_means = [slope * (cell * j + cell / 2) for j in range(n_cols)]
    margin = min(abs(z - (bfe + s)) for z in column_means for s in slrs)
    assert margin >= 0.05, margin
    expected_cols = [sum(z < bfe + s for z in column_means) for s in slrs]
    expected_area = [column_area * n for n in expected_cols]
    exact_columns = engine == expected_area

    # Area never shrinks, and grows wherever two rises differ by more than
    # one column step (slope * cell = 1.96 ft).
    step = slope * cell
    non_decreasing = all(b >= a for a, b in zip(engine, engine[1:]))
    resolvable = [(a, b) for a in range(len(slrs)) for b in range(a + 1, len(slrs))
                  if slrs[b] - slrs[a] > step]
    grows_across_step = bool(resolvable) and all(engine[b] > engine[a] for a, b in resolvable)

    # Risk grows on every 1-ft rise.
    damage_increasing = all(b > a for a, b in zip(damages, damages[1:]))

    ok = (within_column and exact_columns and non_decreasing and grows_across_step
          and damage_increasing and elapsed < 30.0)
    report("C2", ok,
           f"(within-one-column: {within_column}, diffs {[f'{d:.0f}' for d in diffs]}; "
           f"exact columns: {exact_columns}, expected {expected_cols}, "
           f"areas {[f'{a:.0f}' for a in engine]}; "
           f"growth across {step:.2f}-ft step {resolvable}: {non_decreasing and grows_across_step}; "
           f"damage strictly increasing: {damage_increasing}; {elapsed:.1f} s)")
    assert elapsed < 30.0
    for d in diffs:
        assert d <= column_area, (d, column_area)
    assert engine == expected_area, (engine, expected_area, expected_cols)
    assert non_decreasing, engine
    assert grows_across_step, (resolvable, engine)
    assert damage_increasing, damages


def test_supplementary_strict_increase_on_feasible_slope():
    """Not one of the 9 criteria: shows the engine's flooded area does
    increase strictly whenever each 1-ft rise reaches a new column
    (0.01 slope -> 0.98-ft elevation step per column)."""
    results, slope = coast_pipeline(0.01)
    column_area = 98.0 * 980.0
    engine = [r.total_flooded_area for r in results]
    analytic = [(5.0 + r.slr) / slope * 980.0 for r in results]
    for e, a in zip(engine, analytic):
        assert abs(e - a) <= column_area
    assert all(b > a for a, b in zip(engine, engine[1:]))
    damages = [r.total_damage for r in results]
    assert all(b > a for a, b in zip(damages, damages[1:]))


# ---------------------------------------------------------------------------
# C3: conservation suite
# ---------------------------------------------------------------------------

def test_c3_conservation():
    rng = np.random.default_rng(101)
    worst_area = 0.0
    worst_value = 0.0
    for trial in range(1000):
        ox, oy = rng.uniform(-5e4, 5e4, 2)
        cell = float(rng.uniform(10, 200))
        g = GridSpec(ox, oy, cell, int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        bbox = (ox, oy, ox + g.n_cols * cell, oy + g.n_rows * cell)
        p = random_simple_parcel(rng, f"c{trial}", bbox)
        geom_area = polygon_area(p.polygons[0])
        attrs = apportion_many(ParcelTable([p]), g)
        total_area = sum(attrs["area"].tolist())
        total_value = sum(attrs["value"].tolist())
        worst_area = max(worst_area, abs(total_area - geom_area) / geom_area)
        worst_value = max(worst_value, abs(total_value - p.current_assessment)
                          / p.current_assessment)
    ok = worst_area <= 1e-9 and worst_value <= 1e-9
    report("C3", ok, f"(1000 parcels; worst rel err: area {worst_area:.2e}, "
                     f"value {worst_value:.2e})")
    assert worst_area <= 1e-9
    assert worst_value <= 1e-9


# ---------------------------------------------------------------------------
# C4: clipping vs Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_c4_clipping_oracle():
    """Per-cell clipped areas vs a 1e5-sample point-in-polygon oracle.

    The 1% tolerance is measured against the MC sampling domain (the parcel
    bbox): the oracle estimates each area as hit-fraction * bbox_area with
    sampling noise <= 0.16% of bbox, so 1%-of-bbox is a 6-sigma bound. A
    per-cell relative tolerance is statistically unattainable for sliver
    cells and would test the oracle's noise, not the clipper.
    """
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(200):
        g = GridSpec(0.0, 0.0, 98.0, 4, 4)
        extent = (0.0, 0.0, g.n_cols * 98.0, g.n_rows * 98.0)
        if trial % 2 == 0:
            cx = rng.uniform(80, 310)
            cy = rng.uniform(80, 310)
            ring = random_l_ring(rng, (cx, cy), rng.uniform(60, 180), rng.uniform(60, 180))
            ring = [(min(x, extent[2]), min(y, extent[3])) for x, y in ring]
        else:
            from conftest import random_convex_ring
            cx = rng.uniform(100, 290)
            cy = rng.uniform(100, 290)
            ring = random_convex_ring(rng, (cx, cy), rng.uniform(30, 90),
                                      rng.uniform(30, 90))
        xs = [v[0] for v in ring]
        ys = [v[1] for v in ring]
        bbox_area = (max(xs) - min(xs)) * (max(ys) - min(ys))
        attrs = apportion_many(ParcelTable([polygon(f"o{trial}", ring)]), g)
        engine = attributed_areas(attrs, g)
        mc = mc_cell_areas([ring], g, 100_000, rng)
        for cell in set(engine) | set(mc):
            diff = abs(engine.get(cell, 0.0) - mc.get(cell, 0.0)) / bbox_area
            worst = max(worst, diff)
    ok = worst <= 0.01
    report("C4", ok, f"(200 parcels, 1e5 samples each; worst per-cell deviation "
                     f"{worst * 100:.3f}% of the sampling domain)")
    assert worst <= 0.01


# ---------------------------------------------------------------------------
# C5: zonal statistics vs brute-force enumeration
# ---------------------------------------------------------------------------

def test_c5_zonal_oracle():
    rng = np.random.default_rng(107)
    for _ in range(50):
        dem = random_raster(rng)
        ox = dem.xllcorner + rng.uniform(-1.5, 1.0) * dem.ncols * dem.cellsize
        oy = dem.yllcorner + rng.uniform(-1.5, 1.0) * dem.nrows * dem.cellsize
        g = GridSpec(ox, oy, float(rng.uniform(0.5, 5) * dem.cellsize),
                     int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        engine = cell_map(zonal_mean_elevation(dem, g), g)
        oracle = brute_force_zonal_means(dem, g)
        assert engine == oracle  # exact: same keys, bit-identical means
    report("C5", True, "(50 randomized raster/grid configs, exact equality)")


# ---------------------------------------------------------------------------
# C6: damage properties
# ---------------------------------------------------------------------------

def test_c6_damage_properties():
    rng = np.random.default_rng(109)
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        depths = np.sort(rng.choice(np.arange(-8, 48) / 4.0, size=n, replace=False))
        fractions = np.sort(rng.uniform(0, 1, n))
        curve = DamageCurve(list(zip(depths, fractions)))
        value = float(rng.uniform(0, 1e6))
        d1, d2 = sorted(rng.uniform(-5, 15, 2))
        c1 = cell_damage(value, d1, curve)
        c2 = cell_damage(value, d2, curve)
        assert 0.0 <= c1 <= value
        assert 0.0 <= c2 <= value
        assert c1 <= c2 + 1e-9 * max(value, 1.0)
        if d1 <= 0:
            assert c1 == 0.0
        if d2 <= 0:
            assert c2 == 0.0
    report("C6", True, "(10,000 random (state, depth, curve) triples)")


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_c6_finite_inputs_give_finite_monotone_totals(data):
    """Finite DEM, parcel, BFE and curve inputs give finite totals that never
    decrease along an ascending rise list, on both area bases. Magnitudes
    stay plausible: elevations and BFEs within 1e4 ft, assessments up to 1e9,
    parcels and zones that may cross the grid edge."""
    ncols, nrows = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    cs = data.draw(finite(1.0, 20.0))
    samples = st.one_of(finite(-1e4, 1e4), st.just(-9999.0))
    values = data.draw(st.lists(samples, min_size=ncols * nrows, max_size=ncols * nrows))
    dem = Raster(ncols, nrows, data.draw(finite(-1e5, 1e5)), data.draw(finite(-1e5, 1e5)),
                 cs, -9999.0, np.array(values))
    g = make_fishnet(dem.bbox(), data.draw(finite(0.5, 3.0)) * cs)
    xmin, ymin, xmax, ymax = dem.bbox()

    def rect():
        x, y = data.draw(finite(xmin - cs, xmax)), data.draw(finite(ymin - cs, ymax))
        w, h = data.draw(finite(0.05 * cs, 3 * cs)), data.draw(finite(0.05 * cs, 3 * cs))
        return [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]

    parcels = ParcelTable([polygon(f"p{k}", rect(), data.draw(finite(0.0, 1e9)))
                           for k in range(data.draw(st.integers(1, 5)))])
    zones = [BfeZone([rect()], data.draw(finite(-1e4, 1e4)))
             for _ in range(data.draw(st.integers(0, 3)))]
    depths = sorted(data.draw(st.lists(finite(-10.0, 50.0), min_size=2, max_size=5,
                                       unique=True)))
    fractions = sorted(data.draw(st.lists(finite(0.0, 1.0), min_size=len(depths),
                                          max_size=len(depths))))
    curve = DamageCurve(list(zip(depths, fractions)))
    slr = [0.0] + sorted(data.draw(st.lists(finite(0.01, 30.0), max_size=4, unique=True)))

    states = build_cell_states(g, apportion_many(parcels, g), zonal_mean_elevation(dem, g),
                               assign_bfe(g, zones))
    assert_finite_monotone_totals(states, curve, slr, g.cell_size)


def assert_finite_monotone_totals(states, curve, slr, cell_size):
    for basis in ("parcel", "cell"):
        results = sweep(states, curve, slr, area_basis=basis, cell_area=cell_size ** 2)
        damage = [r.total_damage for r in results]
        area = [r.total_flooded_area for r in results]
        assert all(math.isfinite(v) for v in damage + area)
        assert damage == sorted(damage)
        assert area == sorted(area)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_c6_huge_inputs_give_finite_monotone_totals_or_a_value_error(data):
    """As above, with DEM corners, parcel and zone vertices, assessments and
    BFEs of up to 1e300 in magnitude: the totals are finite and never
    decrease, or the library refuses the input with a ValueError of its own
    (a degenerate bbox or parcel, an apportioned value that is not finite)."""
    def coordinate(lo, hi):
        return data.draw(st.one_of(finite(lo, hi), finite(-1e300, 1e300)))

    ncols, nrows = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    cs = data.draw(finite(1.0, 20.0))
    samples = st.one_of(finite(-1e4, 1e4), st.just(-9999.0))
    values = data.draw(st.lists(samples, min_size=ncols * nrows, max_size=ncols * nrows))
    try:
        dem = Raster(ncols, nrows, coordinate(-1e5, 1e5), coordinate(-1e5, 1e5), cs, -9999.0,
                     np.array(values))
        g = make_fishnet(dem.bbox(), data.draw(finite(0.5, 3.0)) * cs)
        xmin, ymin, xmax, ymax = dem.bbox()

        def rect():
            x, y = coordinate(xmin - cs, xmax), coordinate(ymin - cs, ymax)
            w, h = (data.draw(st.one_of(finite(0.05 * cs, 3 * cs), finite(0.05 * cs, 1e300)))
                    for _ in range(2))
            return [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]

        parcels = ParcelTable([polygon(f"p{k}", rect(), data.draw(finite(0.0, 1e300)))
                               for k in range(data.draw(st.integers(1, 5)))])
        zones = [BfeZone([rect()], data.draw(finite(-1e300, 1e300)))
                 for _ in range(data.draw(st.integers(0, 3)))]
        slr = [0.0] + sorted(data.draw(st.lists(finite(0.01, 30.0), max_size=4, unique=True)))
        states = build_cell_states(g, apportion_many(parcels, g), zonal_mean_elevation(dem, g),
                                   assign_bfe(g, zones))
    except ValueError as exc:  # raised in floodgrid, not by numpy or Python under it
        assert Path(traceback.extract_tb(exc.__traceback__)[-1].filename).parent.name == "floodgrid"
        return
    assert_finite_monotone_totals(states, LINEAR_CURVE, slr, g.cell_size)


# ---------------------------------------------------------------------------
# C7: statistics oracles
# ---------------------------------------------------------------------------

def test_c7_statistics_oracles():
    rng = np.random.default_rng(113)
    for _ in range(100):
        n = int(rng.integers(3, 300))
        x = rng.uniform(-50, 150, n)
        while np.all(x == x[0]):
            x = rng.uniform(-50, 150, n)
        y = rng.uniform(-10, 10) * x + rng.uniform(-500, 500) + rng.normal(0, 25, n)
        mine = ols_fit(x, y)
        oracle = ols_normal_equations(x, y)
        for a, b in zip(mine, oracle):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    x = np.arange(12.0)
    _, _, r2 = ols_fit(x, 3.5 * x - 2.0)
    assert abs(r2 - 1.0) <= 1e-12

    rng = np.random.default_rng(20240811)
    x = rng.uniform(1, 100, 500)
    funnel_y = 5 * x + rng.normal(0.0, 1.0, 500) * 0.8 * x
    lm_funnel, het_funnel = breusch_pagan(x, funnel_y)
    assert lm_funnel > CHI2_1DF_5PCT
    assert het_funnel is True

    rng = np.random.default_rng(20240811)
    x = rng.uniform(1, 100, 500)
    flat_y = 5 * x + rng.normal(0.0, 40.0, 500)
    lm_flat, het_flat = breusch_pagan(x, flat_y)
    assert lm_flat < CHI2_1DF_5PCT
    assert het_flat is False

    report("C7", True, f"(OLS oracle x100; exact-fit R2 = 1; BP funnel "
                       f"{lm_funnel:.2f} > {CHI2_1DF_5PCT} > {lm_flat:.2f} flat)")


# ---------------------------------------------------------------------------
# C8: format round-trips
# ---------------------------------------------------------------------------

def test_c8_format_round_trips():
    rng = np.random.default_rng(127)
    for _ in range(100):
        r = random_raster(rng)
        text = write_ascii_grid(r)
        again = parse_ascii_grid(text)
        assert again == r
        assert write_ascii_grid(again) == text  # byte-exact canonical form

    costs = [106302284.38, 120128690.11, 134354291.56, 148673644.61]
    areas = [49073440.0, 51916752.0, 54985504.0, 58003842.0]
    cost_d = incremental_deltas(costs)
    area_d = incremental_deltas(areas)
    results = [ScenarioResult(slr=float(s), total_damage=c, total_flooded_area=a,
                              cost_pct_delta=cd, area_pct_delta=ad)
               for s, c, a, cd, ad in zip(range(4), costs, areas, cost_d, area_d)]
    golden = (
        "scenario,total_flooding_usd,total_area_flooded_sqft,cost_pct_delta,area_pct_delta\n"
        "0,106302284.38,49073440,,\n"
        "1,120128690.11,51916752,13.01,5.79\n"
        "2,134354291.56,54985504,13.38,6.25\n"
        "3,148673644.61,58003842,13.47,6.15\n"
    )
    assert write_report(results) == golden
    report("C8", True, "(100 fuzzed rasters byte-exact; report CSV matches golden)")


# ---------------------------------------------------------------------------
# C9: determinism and performance of the assess command
# ---------------------------------------------------------------------------

def test_c9_determinism_and_performance(tmp_path, monkeypatch):
    rng = np.random.default_rng(131)
    ncols, nrows, px = 2450, 490, 2.0
    xs = (np.arange(ncols) + 0.5) * px
    base = np.tile(0.015 * xs, (nrows, 1))
    noise = rng.normal(0, 0.5, size=(nrows, ncols))
    dem = Raster(ncols, nrows, 0.0, 0.0, px, -9999.0, np.round(base + noise, 3))
    (tmp_path / "dem.asc").write_text(write_ascii_grid(dem))

    features = []
    for k in range(1000):
        w = float(rng.uniform(60, 220))
        h = float(rng.uniform(60, 220))
        x0 = float(rng.uniform(0, 4900 - w))
        y0 = float(rng.uniform(0, 980 - h))
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [
                [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h], [x0, y0]]]},
            "properties": {"parcel_id": f"p{k:04d}",
                           "current_assessment": float(rng.uniform(5e4, 2e6)),
                           "land_area": w * h},
        })
    (tmp_path / "parcels.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}))

    (tmp_path / "bfe.geojson").write_text(json.dumps({
        "type": "FeatureCollection", "features": [{
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [
                [[0, 0], [2500, 0], [2500, 980], [0, 980], [0, 0]]]},
            "properties": {"static_bfe": 6.0},
        }]}))
    (tmp_path / "curve.json").write_text("[[0, 0], [2, 0.3], [10, 1]]")
    (tmp_path / "run.json").write_text(json.dumps({
        "dem_path": "dem.asc", "parcels_path": "parcels.geojson",
        "bfe_path": "bfe.geojson", "damage_curve_path": "curve.json",
        "cell_size": 98.0, "slr_list": [0, 1, 2, 3], "output_dir": "out1",
    }))

    # the DEM body is summed in one process, then split between one per CPU
    split = geodata._workers
    monkeypatch.setattr(geodata, "_workers", lambda: 1)
    t0 = time.perf_counter()
    assert main(["assess", "--config", str(tmp_path / "run.json")]) == EXIT_OK
    elapsed = time.perf_counter() - t0

    monkeypatch.setattr(geodata, "_workers", split)
    assert main(["assess", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out2")]) == EXIT_OK

    one = {p.name: p.read_bytes() for p in sorted((tmp_path / "out1").iterdir())}
    many = {p.name: p.read_bytes() for p in sorted((tmp_path / "out2").iterdir())}
    identical = one == many
    ok = identical and elapsed < 10.0
    report("C9", ok, f"(2450x490 DEM, 1000 parcels, 4 scenarios in {elapsed:.2f} s; "
                     f"1-process == {split()}-process bytes: {identical})")
    assert identical
    assert elapsed < 10.0
