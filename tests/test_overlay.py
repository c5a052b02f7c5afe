"""Clipping, point-in-polygon, and area-weighted apportionment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    attributed_areas,
    mc_cell_areas,
    random_convex_ring,
    random_l_ring,
    random_simple_parcel,
)
from floodgrid.geodata import Parcel
from floodgrid.grid import GridSpec, cell_rect
from floodgrid.overlay import (
    SLIVER_MIN_AREA,
    _clip_half_plane,
    apportion,
    apportion_many,
    clip_to_slab,
    point_in_polygon,
    points_in_polygon,
    polygon_area,
    shoelace_area,
)
from floodgrid.terrain import build_cell_states

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def clip_to_rect(ring, rect):
    xmin, ymin, xmax, ymax = rect
    return clip_to_slab(clip_to_slab(ring, 0, xmin, xmax), 1, ymin, ymax)


class TestShoelace:
    def test_unit_square_ccw(self):
        assert shoelace_area(UNIT_SQUARE) == 1.0

    def test_unit_square_cw(self):
        assert shoelace_area(UNIT_SQUARE[::-1]) == -1.0

    def test_triangle(self):
        assert shoelace_area([(0, 0), (4, 0), (0, 3)]) == 6.0

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match="3 vertices"):
            shoelace_area([(0, 0), (1, 1)])


class TestClip:
    def test_fully_inside_keeps_area(self):
        out = clip_to_rect(UNIT_SQUARE, (-5, -5, 5, 5))
        assert abs(shoelace_area(out)) == pytest.approx(1.0, rel=1e-12)

    def test_half_plane_cut(self):
        out = clip_to_rect(UNIT_SQUARE, (0.5, 0, 2, 2))
        assert abs(shoelace_area(out)) == pytest.approx(0.5, rel=1e-12)

    def test_fully_outside_empty(self):
        assert clip_to_rect(UNIT_SQUARE, (5, 5, 6, 6)) == []

    @settings(max_examples=200, deadline=None)
    @given(
        cx=st.floats(-50, 50), cy=st.floats(-50, 50),
        rx=st.floats(0.1, 20), ry=st.floats(0.1, 20),
        xmin=st.floats(-40, 30), ymin=st.floats(-40, 30),
        w=st.floats(0.1, 40), h=st.floats(0.1, 40),
    )
    def test_clip_area_never_exceeds_inputs(self, cx, cy, rx, ry, xmin, ymin, w, h):
        ring = [(cx - rx, cy - ry), (cx + rx, cy - ry), (cx + rx, cy + ry), (cx - rx, cy + ry)]
        rect = (xmin, ymin, xmin + w, ymin + h)
        out = clip_to_rect(ring, rect)
        area = abs(shoelace_area(out)) if len(out) >= 3 else 0.0
        ring_area = abs(shoelace_area(ring))
        rect_area = w * h
        assert area <= min(ring_area, rect_area) * (1 + 1e-9) + 1e-12


class TestPointInPolygon:
    RINGS_WITH_HOLE = [
        [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        [(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)],
    ]

    def test_centroid_inside(self):
        assert point_in_polygon((0.5, 0.5), [UNIT_SQUARE])

    def test_point_in_hole_is_outside(self):
        assert not point_in_polygon((5.0, 5.0), self.RINGS_WITH_HOLE)
        assert point_in_polygon((2.0, 2.0), self.RINGS_WITH_HOLE)

    def test_far_outside(self):
        assert not point_in_polygon((1e6, 1e6), [UNIT_SQUARE])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 12, 2000)
        ys = rng.uniform(-2, 12, 2000)
        vec = points_in_polygon(xs, ys, self.RINGS_WITH_HOLE)
        scalar = np.array([point_in_polygon((x, y), self.RINGS_WITH_HOLE)
                           for x, y in zip(xs, ys)])
        assert np.array_equal(vec, scalar)


def square_parcel(pid, x0, y0, w, h, value):
    ring = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    return Parcel(parcel_id=pid, outer_ring=ring, current_assessment=value,
                  land_area=w * h)


class TestApportion:
    def test_parcel_coincident_with_cell(self):
        g = GridSpec(0, 0, 98, 3, 3)
        attrs = apportion(square_parcel("a", 0, 0, 98, 98, 100_000), g)
        assert attrs["cell"].tolist() == [0]
        assert attrs["value"][0] == pytest.approx(100_000, rel=1e-12)
        assert attrs["area"][0] == pytest.approx(98 * 98, rel=1e-12)

    def test_two_cell_split(self):
        g = GridSpec(0, 0, 98, 3, 3)
        attrs = apportion(square_parcel("a", 0, 0, 196, 98, 100_000), g)
        assert attrs["cell"].tolist() == [0, 1]
        for value in attrs["value"]:
            assert value == pytest.approx(50_000, rel=1e-12)

    def test_degenerate_parcel(self):
        g = GridSpec(0, 0, 98, 3, 3)
        bad = Parcel(parcel_id="z", outer_ring=[(0, 0), (5, 0), (10, 0)],
                     current_assessment=1, land_area=1)
        with pytest.raises(ValueError, match="degenerate parcel"):
            apportion(bad, g)

    def test_hole_reduces_area_and_value(self):
        g = GridSpec(0, 0, 98, 1, 1)
        p = Parcel(
            parcel_id="h",
            outer_ring=[(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],
            current_assessment=96_000,
            land_area=96,
        )
        attrs = apportion(p, g)
        assert len(attrs) == 1
        assert attrs["area"][0] == pytest.approx(96.0, rel=1e-12)
        assert attrs["value"][0] == pytest.approx(96_000, rel=1e-12)

    def test_outside_grid_area_dropped(self):
        g = GridSpec(0, 0, 98, 1, 1)
        attrs = apportion(square_parcel("e", 49, 0, 98, 98, 1000), g)
        total_area = attrs["area"].sum()
        total_value = attrs["value"].sum()
        assert total_area == pytest.approx(49 * 98, rel=1e-12)
        assert total_value == pytest.approx(500, rel=1e-12)

    def test_multipolygon_members_share_pool(self):
        g = GridSpec(0, 0, 98, 3, 3)
        members = [
            Parcel(parcel_id="m#0", outer_ring=[(0, 0), (98, 0), (98, 98), (0, 98)],
                   current_assessment=90_000, land_area=0, group_area=3 * 98 * 98),
            Parcel(parcel_id="m#1", outer_ring=[(98, 98), (294, 98), (294, 196), (98, 196)],
                   current_assessment=90_000, land_area=0, group_area=3 * 98 * 98),
        ]
        total = apportion_many(members, g)["value"].sum()
        assert total == pytest.approx(90_000, rel=1e-12)
        one_cell = apportion(members[0], g)
        assert one_cell["value"].tolist() == pytest.approx([30_000], rel=1e-12)

    def test_l_shape_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        g = GridSpec(0, 0, 98, 3, 3)
        ring = random_l_ring(rng, (30, 40), 180, 200)
        p = Parcel(parcel_id="L", outer_ring=ring, current_assessment=1.0,
                   land_area=abs(shoelace_area(ring)))
        engine = attributed_areas(apportion(p, g), g)
        mc = mc_cell_areas(p, g, 100_000, rng)
        parcel_area = abs(shoelace_area(ring))
        for cell in set(engine) | set(mc):
            diff = abs(engine.get(cell, 0.0) - mc.get(cell, 0.0))
            assert diff <= 0.01 * parcel_area, (cell, diff, 0.01 * parcel_area)


class TestConservation:
    def test_area_and_value_conserved(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            ox, oy = rng.uniform(-1e4, 1e4, 2)
            cell = rng.uniform(10, 150)
            g = GridSpec(ox, oy, cell, int(rng.integers(3, 9)), int(rng.integers(3, 9)))
            bbox = (ox, oy, ox + g.n_cols * cell, oy + g.n_rows * cell)
            p = random_simple_parcel(rng, f"p{trial}", bbox)
            geom_area = polygon_area(p.rings)
            attrs = apportion(p, g)
            total_area = attrs["area"].sum()
            total_value = attrs["value"].sum()
            assert total_area == pytest.approx(geom_area, rel=1e-9)
            assert total_value == pytest.approx(p.current_assessment, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        g = GridSpec(0, 0, 50, 5, 5)
        p = random_simple_parcel(rng, "t", (0, 0, 250, 250))
        base = attributed_areas(apportion(p, g), g)
        for dx, dy in [(1000.0, -500.0), (12.5, 12.5)]:
            g2 = GridSpec(dx, dy, 50, 5, 5)
            p2 = Parcel(parcel_id="t", current_assessment=p.current_assessment,
                        land_area=p.land_area,
                        outer_ring=[(x + dx, y + dy) for x, y in p.outer_ring])
            moved = attributed_areas(apportion(p2, g2), g2)
            assert set(moved) == set(base)
            for cell, area in base.items():
                assert moved[cell] == pytest.approx(area, rel=1e-9)


def reference_apportion(parcel, g):
    """(cell, area, value) rows from clipping each grid cell's rectangle on
    its own, x bounds then y bounds, and subtracting the holes in order."""
    def clipped_area(ring, rect):
        xmin, ymin, xmax, ymax = rect
        out = _clip_half_plane(ring, 0, xmin, True)
        out = _clip_half_plane(out, 0, xmax, False)
        out = _clip_half_plane(out, 1, ymin, True)
        out = _clip_half_plane(out, 1, ymax, False)
        return abs(shoelace_area(out)) if len(out) >= 3 else 0.0

    geom_area = (abs(shoelace_area(parcel.outer_ring))
                 - sum(abs(shoelace_area(h)) for h in parcel.holes))
    denom = parcel.group_area if parcel.group_area is not None else geom_area
    rows = []
    for i in range(g.n_rows):
        for j in range(g.n_cols):
            rect = cell_rect(g, i, j)
            area = clipped_area(parcel.outer_ring, rect)
            for hole in parcel.holes:
                area -= clipped_area(hole, rect)
            if area >= SLIVER_MIN_AREA:
                rows.append((i * g.n_cols + j, area,
                             parcel.current_assessment * area / denom))
    return rows


def mixed_parcels(rng, g):
    """Parcels at county-scale coordinates: L shapes with two holes, convex
    rings, MultiPolygon members sharing a pool, and repeated parcel_ids,
    many to a cell and some crossing the grid edge."""
    s = g.cell_size
    parcels = []
    for k in range(60):
        x0 = g.origin_x + rng.uniform(-0.5, g.n_cols - 0.5) * s
        y0 = g.origin_y + rng.uniform(-0.5, g.n_rows - 0.5) * s
        w, h = rng.uniform(0.2, 2.5, 2) * s
        pid = f"p{int(rng.integers(0, 40)):02d}"  # about a third repeat
        value = float(rng.uniform(1e4, 1e6))
        if k % 3 == 0:
            ring = random_l_ring(rng, (x0, y0), w, h)
            # two holes side by side in the corner every L shape keeps
            holes = [[(x0 + a * w, y0 + 0.05 * h), (x0 + b * w, y0 + 0.05 * h),
                      (x0 + b * w, y0 + 0.25 * h), (x0 + a * w, y0 + 0.25 * h)]
                     for a, b in ((0.05, 0.12), (0.15, 0.25))]
            parcels.append(Parcel(pid, ring, holes, value, w * h))
        elif k % 3 == 1:
            ring = random_convex_ring(rng, (x0, y0), w / 2, h / 2)
            parcels.append(Parcel(pid, ring, [], value, w * h))
        else:
            members = [random_convex_ring(rng, (x0 + m * w, y0), w / 2, h / 2)
                       for m in range(2)]
            pool = sum(abs(shoelace_area(r)) for r in members)
            parcels += [Parcel(f"{pid}#{m}", r, [], value, pool, group_area=pool)
                        for m, r in enumerate(members)]
    return parcels


class TestApportionMany:
    def test_sorted_and_worker_invariant(self):
        rng = np.random.default_rng(23)
        g = GridSpec(0, 0, 98, 4, 4)
        parcels = [random_simple_parcel(rng, f"p{k:03d}", (0, 0, 392, 392)) for k in range(20)]
        attrs = apportion_many(parcels, g)
        shuffled = [parcels[k] for k in rng.permutation(len(parcels))]
        assert apportion_many(shuffled, g).tobytes() == attrs.tobytes()
        per_parcel = [apportion(p, g) for p in parcels]
        assert len(attrs) == sum(len(a) for a in per_parcel)
        assert all(np.all(np.diff(a["cell"]) > 0) for a in per_parcel)

    def test_empty_batch(self):
        attrs = apportion_many([], GridSpec(0, 0, 98, 2, 2))
        assert len(attrs) == 0
        assert attrs.dtype.names == ("cell", "area", "value")

    def test_bit_equal_to_per_cell_reference(self):
        rng = np.random.default_rng(29)
        g = GridSpec(2_451_337.25, 731_904.5, 37.0, 7, 6)
        parcels = mixed_parcels(rng, g)
        assert len({p.parcel_id for p in parcels}) < len(parcels)
        for p in parcels:
            got = apportion(p, g)
            want = reference_apportion(p, g)
            assert list(zip(got["cell"].tolist(), got["area"].tolist(),
                            got["value"].tolist())) == want, p.parcel_id

        # exposure summed in (parcel_id, cell) order, repeated ids in input order
        flat = [(p.parcel_id, *row) for p in parcels for row in reference_apportion(p, g)]
        flat.sort(key=lambda t: t[:2])
        value = [0.0] * g.n_cells
        area = [0.0] * g.n_cells
        for _, cell, a, v in flat:
            area[cell] += a
            value[cell] += v
        assert max(np.bincount([t[1] for t in flat])) >= 5
        no_data = np.full(g.n_cells, np.nan)
        states = build_cell_states(g, apportion_many(parcels, g), no_data, no_data)
        assert states.exposed_value.tolist() == value
        assert states.exposed_area.tolist() == area
