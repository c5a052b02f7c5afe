"""Zonal elevation statistics, BFE assignment, and flood depth."""

import numpy as np
import pytest

from conftest import brute_force_zonal_means, cell_map, random_raster
from floodgrid.geodata import BfeZone, Raster
from floodgrid.grid import GridSpec
from floodgrid.overlay import ATTRIBUTION_DTYPE
from floodgrid.terrain import (
    assign_bfe,
    build_cell_states,
    cell_states_csv,
    flood_depth,
    zonal_mean_elevation,
)


class TestZonalMean:
    def test_constant_field(self):
        dem = Raster(10, 10, 0, 0, 2, -9999, np.full(100, 7.0))
        g = GridSpec(0, 0, 10, 2, 2)
        means = cell_map(zonal_mean_elevation(dem, g), g)
        assert set(means) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(v == 7.0 for v in means.values())

    def test_four_values_one_cell(self):
        dem = Raster(2, 2, 0, 0, 1, -9999, np.array([2.0, 4.0, 6.0, 8.0]))
        g = GridSpec(0, 0, 10, 1, 1)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {(0, 0): 5.0}

    def test_nodata_excluded(self):
        dem = Raster(2, 1, 0, 0, 1, -9999, np.array([-9999.0, 4.0]))
        g = GridSpec(0, 0, 10, 1, 1)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {(0, 0): 4.0}

    def test_all_nodata_cell_absent(self):
        dem = Raster(2, 1, 0, 0, 1, -9999, np.array([-9999.0, -9999.0]))
        g = GridSpec(0, 0, 10, 1, 1)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_treated_as_nodata(self, bad):
        values = np.arange(25.0)
        values[7] = bad
        dem = Raster(5, 5, 0, 0, 1, -9999, values)
        g = GridSpec(0, 0, 10, 1, 1)
        # the mean of the 24 finite samples 0..24 without 7
        assert cell_map(zonal_mean_elevation(dem, g), g) == {(0, 0): 293 / 24}

    def test_disjoint_extents(self):
        dem = Raster(2, 2, 1000, 1000, 1, -9999, np.arange(4.0))
        g = GridSpec(0, 0, 10, 2, 2)
        assert cell_map(zonal_mean_elevation(dem, g), g) == {}

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dem = random_raster(rng)
            # random grid, sometimes overlapping the raster, sometimes not
            ox = dem.xllcorner + rng.uniform(-2, 1) * dem.ncols * dem.cellsize
            oy = dem.yllcorner + rng.uniform(-2, 1) * dem.nrows * dem.cellsize
            g = GridSpec(ox, oy, float(rng.uniform(0.5, 4) * dem.cellsize),
                         int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            assert cell_map(zonal_mean_elevation(dem, g), g) == brute_force_zonal_means(dem, g)

    def test_mean_within_sample_range(self):
        rng = np.random.default_rng(37)
        dem = Raster(20, 20, 0, 0, 2, -9999, rng.uniform(0, 50, 400))
        g = GridSpec(0, 0, 8, 5, 5)
        means = cell_map(zonal_mean_elevation(dem, g), g)
        assert means
        for v in means.values():
            assert dem.values.min() <= v <= dem.values.max()


class TestZonalMeanBands:
    """The sums over fishnet-row bands equal the whole-raster oracle bit for bit."""

    def test_dem_spanning_many_bands(self):
        rng = np.random.default_rng(53)
        nrows, ncols = 700, 800
        values = rng.uniform(-50, 50, nrows * ncols)
        values[rng.random(values.shape) < 0.05] = -9999.0
        dem = Raster(ncols, nrows, 0, 0, 1.5, -9999, values)
        # Both grids overlap all 800 DEM columns and 660-700 DEM rows, and
        # stick out past the raster's edges.
        for g in [  # ~23 samples per cell, so a changed summation order would show
                  GridSpec(-40.0, 60.0, 7.3, 170, 150),
                  # cells narrower than a DEM cell: some fishnet rows get no samples
                  GridSpec(-3.0, -3.0, 1.2, 1000, 900)]:
            means = zonal_mean_elevation(dem, g)
            assert cell_map(means, g) == brute_force_zonal_means(dem, g)

    def test_random_grids_match_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(90):
            nrows, ncols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            values = rng.uniform(-1e4, 1e4, nrows * ncols)
            values[rng.random(values.shape) < 0.1] = -9999.0
            cs = float(rng.uniform(0.5, 20))
            dem = Raster(ncols, nrows, float(rng.uniform(-1e3, 1e3)),
                         float(rng.uniform(-1e3, 1e3)), cs, -9999, values)
            ox = dem.xllcorner + rng.uniform(-1, 1) * ncols * cs
            oy = dem.yllcorner + rng.uniform(-1, 1) * nrows * cs
            g = GridSpec(ox, oy, float(rng.uniform(0.3, 6) * cs),
                         int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            assert cell_map(zonal_mean_elevation(dem, g), g) == brute_force_zonal_means(dem, g)


class TestAssignBfe:
    FULL = BfeZone(rings=[[(0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (0.0, 30.0)]], static_bfe=9.0)

    def test_whole_grid_zone(self):
        g = GridSpec(0, 0, 10, 3, 3)
        bfes = cell_map(assign_bfe(g, [self.FULL]), g)
        assert len(bfes) == 9
        assert all(v == 9.0 for v in bfes.values())

    def test_outside_zone_absent(self):
        g = GridSpec(0, 0, 10, 3, 3)
        west = BfeZone(rings=[[(0.0, 0.0), (15.0, 0.0), (15.0, 30.0), (0.0, 30.0)]],
                       static_bfe=4.0)
        bfes = cell_map(assign_bfe(g, [west]), g)
        # only the first column of centroids (x = 5) falls inside
        assert set(bfes) == {(0, 0), (1, 0), (2, 0)}

    def test_first_zone_wins_overlap(self):
        g = GridSpec(0, 0, 10, 3, 3)
        other = BfeZone(rings=self.FULL.rings, static_bfe=2.0)
        bfes = cell_map(assign_bfe(g, [self.FULL, other]), g)
        assert all(v == 9.0 for v in bfes.values())
        bfes = cell_map(assign_bfe(g, [other, self.FULL]), g)
        assert all(v == 2.0 for v in bfes.values())

    def test_no_zones(self):
        g = GridSpec(0, 0, 10, 2, 2)
        assert cell_map(assign_bfe(g, []), g) == {}


class TestFloodDepth:
    def test_formula(self):
        assert flood_depth(10, 0, 7) == 3.0
        assert flood_depth(10, 0, 12) == -2.0
        assert flood_depth(10, 1, 10.5) == 0.5

    def test_unit_slope_in_slr(self):
        # exact on a dyadic lattice, where float addition introduces no rounding
        rng = np.random.default_rng(41)
        for _ in range(200):
            bfe, s, elev = np.round(rng.uniform(-50, 50, 3) * 4) / 4
            assert flood_depth(bfe, s + 1, elev) - flood_depth(bfe, s, elev) == 1.0

    def test_strictly_increasing_in_slr(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            bfe, s, elev = rng.uniform(-50, 50, 3)
            assert flood_depth(bfe, s + 1, elev) > flood_depth(bfe, s, elev)


class TestCellStates:
    def test_build_and_sum(self):
        g = GridSpec(0, 0, 10, 2, 2)
        # (cell, area, value): parcels a and b in cell (0, 0), a in cell (1, 1)
        attrs = np.array([(0, 50.0, 500.0), (0, 25.0, 100.0), (3, 10.0, 90.0)],
                         dtype=ATTRIBUTION_DTYPE)
        nan = np.nan
        states = build_cell_states(g, attrs, np.array([3.5, nan, nan, nan]),
                                   np.array([nan, nan, nan, 8.0]))
        for column in (states.mean_elevation, states.bfe,
                       states.exposed_value, states.exposed_area):
            assert column.shape == (4,)
        assert cell_map(states.exposed_value, g)[(0, 0)] == 600.0
        assert cell_map(states.exposed_area, g)[(0, 0)] == 75.0
        assert cell_map(states.mean_elevation, g) == {(0, 0): 3.5}
        assert cell_map(states.bfe, g) == {(1, 1): 8.0}
        assert cell_map(states.exposed_value, g)[(1, 0)] == 0.0

    def test_csv_dump(self):
        g = GridSpec(0, 0, 10, 2, 1)
        states = build_cell_states(
            g,
            np.array([(1, 12.5, 1000.0)], dtype=ATTRIBUTION_DTYPE),
            np.array([2.5, np.nan]),
            np.array([np.nan, 6.0]),
        )
        out = cell_states_csv(g, states)
        assert out == (
            "row,col,mean_elevation,bfe,exposed_value,exposed_area\n"
            "0,0,2.5,,0.00,0\n"
            "0,1,,6,1000.00,12.5\n"
        )
