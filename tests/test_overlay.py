"""Clipping, point-in-polygon, and area-weighted apportionment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Feature,
    attributed_areas,
    clip_half_plane,
    mask_clip,
    mc_cell_areas,
    points_in_polygon,
    polygon,
    polygon_area,
    random_convex_ring,
    random_l_ring,
    random_simple_parcel,
    reference_apportion,
    shoelace_area,
)
from floodgrid import terrain
from floodgrid.geodata import ParcelTable, ring_areas
from floodgrid.terrain import (
    SLIVER_MIN_AREA,
    GridSpec,
    _clip,
    apportion_many,
    build_cell_states,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def areas_of(*rings):
    """ring_areas of a few rings given as lists of (x, y)."""
    xy = np.array([p for ring in rings for p in ring], dtype=float).reshape(-1, 2)
    return ring_areas(xy[:, 0].copy(), xy[:, 1].copy(),
                      np.array([len(ring) for ring in rings])).tolist()


def clip_to_rect(ring, rect):
    """The four ragged half-plane steps on one ring, as a list of (x, y)."""
    xmin, ymin, xmax, ymax = rect
    x, y = (np.array([p[axis] for p in ring], dtype=float) for axis in (0, 1))
    n = np.array([len(ring)])
    x, y, n = _clip(x, y, n, np.array([xmin]), True)
    x, y, n = _clip(x, y, n, np.array([xmax]), False)
    y, x, n = _clip(y, x, n, np.array([ymin]), True)
    y, x, n = _clip(y, x, n, np.array([ymax]), False)
    return list(zip(x.tolist(), y.tolist()))


def scalar_clip_to_rect(ring, rect):
    xmin, ymin, xmax, ymax = rect
    for axis, bound, keep_ge in ((0, xmin, True), (0, xmax, False),
                                 (1, ymin, True), (1, ymax, False)):
        ring = clip_half_plane(ring, axis, bound, keep_ge)
    return ring


def one(feature, g):
    """apportion_many of a one-feature table."""
    return apportion_many(ParcelTable([feature]), g)


def rows(attrs):
    return list(zip(attrs["cell"].tolist(), attrs["area"].tolist(), attrs["value"].tolist()))


def reference_rows(features, g):
    """The oracle's (cell, area, value) rows of a batch in stable parcel_id order."""
    flat = [r for f in features for r in reference_apportion(f, g)]
    return [r[1:] for r in sorted(flat, key=lambda r: r[0])]


class TestShoelace:
    def test_unit_square_ccw(self):
        assert areas_of(UNIT_SQUARE) == [1.0]

    def test_unit_square_cw(self):
        assert areas_of(UNIT_SQUARE[::-1]) == [1.0]

    def test_triangle(self):
        assert areas_of([(0, 0), (4, 0), (0, 3)]) == [6.0]

    def test_too_few_vertices(self):
        assert areas_of([(0, 0), (1, 1)], UNIT_SQUARE, []) == [0.0, 1.0, 0.0]

    def test_bit_equal_to_scalar_loop(self):
        rng = np.random.default_rng(31)
        rings = []
        for n in rng.integers(3, 30, 300):
            cx, cy = rng.uniform(-1e6, 1e6, 2)
            angles = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (2 * np.pi / n)
            radii = rng.uniform(1, 50, n)
            rings.append(list(zip((cx + radii * np.cos(angles)).tolist(),
                                  (cy + radii * np.sin(angles)).tolist())))
        assert areas_of(*rings) == [abs(shoelace_area(r)) for r in rings]


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
        assert out == scalar_clip_to_rect(ring, rect)
        area = abs(shoelace_area(out)) if len(out) >= 3 else 0.0
        ring_area = abs(shoelace_area(ring))
        rect_area = w * h
        assert area <= min(ring_area, rect_area) * (1 + 1e-9) + 1e-12


# a coarse grid of coordinates, so that many vertices lie exactly on a bound
COARSE = st.integers(-4, 4).map(lambda k: k / 2)


@st.composite
def ragged_batches(draw):
    """(rings, bounds, keep_ge) for one _clip call: rings of (a, o) vertices,
    each with its own bound, among them one wholly inside, one wholly outside
    and empty rings at the start, in the middle and at the end."""
    keep_ge = draw(st.booleans())
    far = 3.0 if keep_ge else -3.0  # beyond every vertex, on the outside
    ring = st.lists(st.tuples(COARSE, COARSE), max_size=7)
    body = draw(st.lists(st.tuples(ring, COARSE), min_size=1, max_size=6))
    body = draw(st.permutations(body + [(draw(ring), -far), (draw(ring), far)]))
    mid = draw(st.integers(0, len(body)))
    empty = st.tuples(st.just([]), COARSE)
    batch = [draw(empty), *body[:mid], draw(empty), *body[mid:], draw(empty)]
    return [r for r, _ in batch], [bound for _, bound in batch], keep_ge


class TestRaggedClip:
    @settings(max_examples=300, deadline=None)
    @given(ragged_batches())
    def test_batch_matches_each_ring_and_the_mask_step(self, batch):
        rings, bounds, keep_ge = batch
        a, o = (np.array([p[axis] for r in rings for p in r], dtype=float) for axis in (0, 1))
        args = (a, o, np.array([len(r) for r in rings]), np.array(bounds), keep_ge)
        got = _clip(*args)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in mask_clip(*args)]
        scalar = [clip_half_plane(r, 0, bound, keep_ge) for r, bound in zip(rings, bounds)]
        flat = [p for r in scalar for p in r]
        assert got[2].tolist() == [len(r) for r in scalar]
        for axis in (0, 1):
            assert got[axis].tobytes() == np.array([p[axis] for p in flat], dtype=float).tobytes()


def point_in_polygon(p, rings) -> bool:
    """Scalar even-odd test, one edge at a time: the oracle for points_in_polygon."""
    x, y = p
    inside = False
    for ring in rings:
        n = len(ring)
        for k in range(n):
            x1, y1 = ring[k]
            x2, y2 = ring[(k + 1) % n]
            if (y1 > y) != (y2 > y) and x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
                inside = not inside
    return inside


def contains(p, rings) -> bool:
    """points_in_polygon on a one-point array."""
    return bool(points_in_polygon([p[0]], [p[1]], rings)[0])


class TestPointInPolygon:
    RINGS_WITH_HOLE = [
        [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        [(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)],
    ]

    def test_centroid_inside(self):
        assert contains((0.5, 0.5), [UNIT_SQUARE])

    def test_point_in_hole_is_outside(self):
        assert not contains((5.0, 5.0), self.RINGS_WITH_HOLE)
        assert contains((2.0, 2.0), self.RINGS_WITH_HOLE)

    def test_far_outside(self):
        assert not contains((1e6, 1e6), [UNIT_SQUARE])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        # random points plus a half-unit lattice: points on edges and vertices
        lattice = np.arange(-2.0, 12.5, 0.5)
        xs = np.concatenate([rng.uniform(-2, 12, 2000), np.repeat(lattice, lattice.size)])
        ys = np.concatenate([rng.uniform(-2, 12, 2000), np.tile(lattice, lattice.size)])
        vec = points_in_polygon(xs, ys, self.RINGS_WITH_HOLE)
        scalar = np.array([point_in_polygon((x, y), self.RINGS_WITH_HOLE)
                           for x, y in zip(xs, ys)])
        assert np.array_equal(vec, scalar)


def square_parcel(pid, x0, y0, w, h, value):
    ring = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    return polygon(pid, ring, value, w * h)


class TestApportion:
    def test_parcel_coincident_with_cell(self):
        g = GridSpec(0, 0, 98, 3, 3)
        attrs = one(square_parcel("a", 0, 0, 98, 98, 100_000), g)
        assert attrs["cell"].tolist() == [0]
        assert attrs["value"][0] == pytest.approx(100_000, rel=1e-12)
        assert attrs["area"][0] == pytest.approx(98 * 98, rel=1e-12)

    def test_two_cell_split(self):
        g = GridSpec(0, 0, 98, 3, 3)
        attrs = one(square_parcel("a", 0, 0, 196, 98, 100_000), g)
        assert attrs["cell"].tolist() == [0, 1]
        for value in attrs["value"]:
            assert value == pytest.approx(50_000, rel=1e-12)

    def test_degenerate_parcel(self):
        g = GridSpec(0, 0, 98, 3, 3)
        bad = polygon("z", [(0, 0), (5, 0), (10, 0)], 1, 1)
        with pytest.raises(ValueError, match="degenerate parcel 'z'"):
            one(bad, g)

    def test_negative_area_parcel_is_named_by_sign(self):
        g = GridSpec(0, 0, 98, 3, 3)
        bad = polygon("h1", [(0, 0), (10, 0), (10, 10), (0, 10)], 1, 1,
                      holes=[[(0, 0), (20, 0), (20, 20), (0, 20)]])
        assert ParcelTable([bad]).area.tolist() == [-300.0]
        with pytest.raises(ValueError) as exc:
            one(bad, g)
        assert str(exc.value) == "degenerate parcel 'h1' (negative geometric area -300)"
        with pytest.raises(ValueError) as exc:
            one(polygon("z", [(0, 0), (5, 0), (10, 0)], 1, 1), g)
        assert str(exc.value) == "degenerate parcel 'z' (zero geometric area)"

    def test_hole_reduces_area_and_value(self):
        g = GridSpec(0, 0, 98, 1, 1)
        p = polygon("h", [(0, 0), (10, 0), (10, 10), (0, 10)], 96_000, 96,
                    holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        attrs = one(p, g)
        assert len(attrs) == 1
        assert attrs["area"][0] == pytest.approx(96.0, rel=1e-12)
        assert attrs["value"][0] == pytest.approx(96_000, rel=1e-12)

    def test_outside_grid_area_dropped(self):
        g = GridSpec(0, 0, 98, 1, 1)
        attrs = one(square_parcel("e", 49, 0, 98, 98, 1000), g)
        total_area = attrs["area"].sum()
        total_value = attrs["value"].sum()
        assert total_area == pytest.approx(49 * 98, rel=1e-12)
        assert total_value == pytest.approx(500, rel=1e-12)

    def test_multipolygon_members_share_pool(self):
        g = GridSpec(0, 0, 98, 3, 3)
        members = [[[(0, 0), (98, 0), (98, 98), (0, 98)]],
                   [[(98, 98), (294, 98), (294, 196), (98, 196)]]]
        table = ParcelTable([Feature("m", members, 90_000)])
        assert table.denominator.tolist() == [3 * 98 * 98] * 2
        attrs = apportion_many(table, g)
        assert attrs["value"].sum() == pytest.approx(90_000, rel=1e-12)
        assert attrs["value"][:1].tolist() == pytest.approx([30_000], rel=1e-12)

    def test_l_shape_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        g = GridSpec(0, 0, 98, 3, 3)
        ring = random_l_ring(rng, (30, 40), 180, 200)
        engine = attributed_areas(one(polygon("L", ring), g), g)
        mc = mc_cell_areas([ring], g, 100_000, rng)
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
            geom_area = polygon_area(p.polygons[0])
            attrs = one(p, g)
            total_area = attrs["area"].sum()
            total_value = attrs["value"].sum()
            assert total_area == pytest.approx(geom_area, rel=1e-9)
            assert total_value == pytest.approx(p.current_assessment, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        g = GridSpec(0, 0, 50, 5, 5)
        p = random_simple_parcel(rng, "t", (0, 0, 250, 250))
        base = attributed_areas(one(p, g), g)
        for dx, dy in [(1000.0, -500.0), (12.5, 12.5)]:
            g2 = GridSpec(dx, dy, 50, 5, 5)
            ring = [(x + dx, y + dy) for x, y in p.polygons[0][0]]
            moved = attributed_areas(one(p._replace(polygons=[[ring]]), g2), g2)
            assert set(moved) == set(base)
            for cell, area in base.items():
                assert moved[cell] == pytest.approx(area, rel=1e-9)


def mixed_parcels(rng, g):
    """Features at county-scale coordinates: L shapes with two holes, convex
    rings, MultiPolygons of two members sharing a pool, and repeated
    parcel_ids, many to a cell and some crossing the grid edge."""
    s = g.cell_size
    features = []
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
            features.append(polygon(pid, ring, value, w * h, holes))
        elif k % 3 == 1:
            ring = random_convex_ring(rng, (x0, y0), w / 2, h / 2)
            features.append(polygon(pid, ring, value, w * h))
        else:
            members = [[random_convex_ring(rng, (x0 + m * w, y0), w / 2, h / 2)]
                       for m in range(2)]
            features.append(Feature(pid, members, value, w * h))
    return features


def edge_case_features(g):
    """Rings on the cell lines of g (origin 0, cell 10, 4x4): vertices on the
    lines, edges along them, clockwise rings, parcels off the grid or across
    its edge, and pieces thinner than SLIVER_MIN_AREA in some cells."""
    def rect(x0, y0, x1, y1):
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]

    return [
        polygon("a-on-lines", rect(10, 10, 30, 20), 1000.0),
        polygon("b-clockwise", rect(10, 10, 30, 20)[::-1], 1000.0),
        polygon("c-diamond", [(20, 10), (30, 20), (20, 30), (10, 20)], 1000.0),
        polygon("d-edge-on-line", [(5, 10), (15, 10), (15, 20), (12, 25), (5, 20)], 700.0),
        polygon("e-off-grid", rect(50, 50, 60, 60), 500.0),
        polygon("f-west-of-grid", rect(-20, 5, -10, 15), 500.0),
        polygon("g-straddles", rect(-5, -5, 15, 45), 900.0,
                holes=[rect(0, 0, 10, 10)[::-1]]),
        polygon("h-clockwise-hole", rect(0, 0, 40, 40)[::-1], 400.0,
                holes=[rect(10, 10, 20, 20), rect(20, 20, 30, 30)]),
        polygon("i-sliver", rect(5, 5, 20, 5 + 1e-8), 100.0),
        polygon("j-sliver-tail", [(0, 0), (10 + 1e-9, 0), (10 + 1e-9, 1e-3), (0, 10)], 100.0),
        polygon("k-needle", [(0, 35), (40, 35 + 1e-7), (40, 35 + 2e-7)], 100.0),
    ]


class TestApportionMany:
    def test_sorted_and_worker_invariant(self):
        rng = np.random.default_rng(23)
        g = GridSpec(0, 0, 98, 4, 4)
        features = [random_simple_parcel(rng, f"p{k:03d}", (0, 0, 392, 392))
                    for k in range(20)]
        attrs = apportion_many(ParcelTable(features), g)
        shuffled = [features[k] for k in rng.permutation(len(features))]
        assert apportion_many(ParcelTable(shuffled), g).tobytes() == attrs.tobytes()
        per_parcel = [one(f, g) for f in features]
        assert attrs.tobytes() == np.concatenate(per_parcel).tobytes()
        assert all(np.all(np.diff(a["cell"]) > 0) for a in per_parcel)

    def test_empty_batch(self):
        attrs = apportion_many(ParcelTable([]), GridSpec(0, 0, 98, 2, 2))
        assert len(attrs) == 0
        assert attrs.dtype.names == ("cell", "area", "value")

    def test_bit_equal_to_per_cell_reference(self):
        rng = np.random.default_rng(29)
        g = GridSpec(2_451_337.25, 731_904.5, 37.0, 7, 6)
        features = mixed_parcels(rng, g)
        assert len({f.parcel_id for f in features}) < len(features)
        for f in features:
            assert rows(one(f, g)) == reference_rows([f], g), f.parcel_id
        attrs = apportion_many(ParcelTable(features), g)
        assert rows(attrs) == reference_rows(features, g)

        # exposure summed in (parcel_id, cell) order, repeated ids in input order
        flat = [row for f in features for row in reference_apportion(f, g)]
        flat.sort(key=lambda t: t[:2])
        value = [0.0] * g.n_cells
        area = [0.0] * g.n_cells
        for _, cell, a, v in flat:
            area[cell] += a
            value[cell] += v
        assert max(np.bincount([t[1] for t in flat])) >= 5
        no_data = np.full(g.n_cells, np.nan)
        states = build_cell_states(g, attrs, no_data, no_data)
        assert states.exposed_value.tolist() == value
        assert states.exposed_area.tolist() == area

    def test_edge_cases_bit_equal_to_reference(self):
        g = GridSpec(0.0, 0.0, 10.0, 4, 4)
        features = edge_case_features(g)
        for f in features:
            assert rows(one(f, g)) == reference_rows([f], g), f.parcel_id
        attrs = apportion_many(ParcelTable(features), g)
        assert rows(attrs) == reference_rows(features, g)
        # the cases the features are meant to reach
        by_id = {f.parcel_id: rows(one(f, g)) for f in features}
        assert by_id["e-off-grid"] == [] and by_id["f-west-of-grid"] == []
        assert [r[0] for r in by_id["a-on-lines"]] == [5, 6]
        assert by_id["a-on-lines"] == by_id["b-clockwise"]
        assert by_id["i-sliver"] == [] and by_id["k-needle"] == []
        assert 0 < ParcelTable([features[8]]).area[0] < SLIVER_MIN_AREA
        assert [r[0] for r in by_id["j-sliver-tail"]] == [0]

    def test_chunks_match_one_parcel_calls(self):
        rng = np.random.default_rng(37)
        g = GridSpec(-1000.0, 500.0, 10.0, 60, 60)
        features = [polygon(f"q{k:04d}", random_convex_ring(
                        rng, rng.uniform([-1100, 400], [-300, 1200]), *rng.uniform(20, 90, 2),
                        n_min=5, n_max=12), float(rng.uniform(1e4, 1e6)))
                    for k in range(500)]
        table = ParcelTable(features)
        vertices = np.diff(table.vertex_offsets[table.ring_offsets])
        _, columns = terrain._span(table.bbox[:, 0], table.bbox[:, 2], -1000.0, 10.0, 60)
        _, rows_ = terrain._span(table.bbox[:, 1], table.bbox[:, 3], 500.0, 10.0, 60)
        assert (vertices * columns * rows_).sum() > 3 * terrain.BATCH_ENTRIES
        singles = np.concatenate([one(f, g) for f in sorted(features)])
        assert apportion_many(table, g).tobytes() == singles.tobytes()

    def test_tiny_chunks_match_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(41)
        g = GridSpec(2_451_337.25, 731_904.5, 37.0, 7, 6)
        table = ParcelTable(mixed_parcels(rng, g))
        whole = apportion_many(table, g).tobytes()
        for budget in (1, 40, 300):
            monkeypatch.setattr(terrain, "BATCH_ENTRIES", budget)
            assert apportion_many(table, g).tobytes() == whole

    def test_first_degenerate_parcel_wins(self):
        g = GridSpec(0, 0, 10, 2, 2)
        flat = [(0, 0), (5, 0), (10, 0)]
        features = [polygon("d2", flat), polygon("d1", flat), square_parcel("a", 0, 0, 5, 5, 1)]
        with pytest.raises(ValueError, match="degenerate parcel 'd1'"):
            apportion_many(ParcelTable(features), g)

    def test_first_overflowing_parcel_wins(self):
        g = GridSpec(0, 0, 10, 2, 2)
        features = [square_parcel(pid, 0, 0, 15, 15, 1e308) for pid in ("o2", "o1")]
        features.append(square_parcel("a", 0, 0, 5, 5, 1.0))
        with pytest.raises(ValueError, match="apportioned value of parcel 'o1' is not finite"):
            apportion_many(ParcelTable(features), g)

    def test_overflow_before_degenerate_parcel_wins(self):
        g = GridSpec(0, 0, 10, 2, 2)
        features = [polygon("z", [(0, 0), (5, 0), (10, 0)]),
                    square_parcel("o", 0, 0, 15, 15, 1e308)]
        with pytest.raises(ValueError, match="parcel 'o' is not finite"):
            apportion_many(ParcelTable(features), g)
