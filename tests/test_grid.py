"""Fishnet construction and cell geometry."""

import pytest

from floodgrid.grid import GridSpec, cell_rect, col_of, make_fishnet, row_of


def test_fishnet_exact_fit():
    g = make_fishnet((0, 0, 294, 294), 98)
    assert (g.n_rows, g.n_cols) == (3, 3)
    assert (g.origin_x, g.origin_y, g.cell_size) == (0, 0, 98)


def test_fishnet_ceiling_rule():
    g = make_fishnet((0, 0, 100, 100), 98)
    assert (g.n_rows, g.n_cols) == (2, 2)
    assert g.x_max >= 100 and g.y_max >= 100


def test_fishnet_degenerate_bbox():
    with pytest.raises(ValueError, match="degenerate bbox"):
        make_fishnet((0, 0, 0, 100), 98)


def test_fishnet_bad_cell_size():
    with pytest.raises(ValueError, match="positive"):
        make_fishnet((0, 0, 10, 10), 0)


@pytest.mark.parametrize("bbox, cell_size, message", [
    ((0, 0, float("inf"), 10), 1, "bbox must be finite"),
    ((float("nan"), 0, 10, 10), 1, "bbox must be finite"),
    ((0, 0, 10, 10), float("inf"), "positive and finite"),
    ((0, 0, 10, 10), float("nan"), "positive and finite"),
    ((0, 0, 10, 10), 1e-320, "too many cells"),
    ((-1e308, 0, 1e308, 1), 1, "too many cells"),
    ((0, 0, 2**32, 2**31), 1, "too many cells"),
])
def test_fishnet_unrepresentable_grid(bbox, cell_size, message):
    with pytest.raises(ValueError, match=message):
        make_fishnet(bbox, cell_size)


def test_fishnet_largest_cell_count_accepted():
    g = make_fishnet((0, 0, 2**32, 2**31 - 1), 1)
    assert g.n_cells == 2**63 - 2**32


def test_cell_rect_corners():
    g = GridSpec(0, 0, 98, 3, 3)
    assert cell_rect(g, 0, 0) == (0, 0, 98, 98)
    assert cell_rect(g, 2, 2) == (196, 196, 294, 294)


def test_cell_rect_out_of_range():
    g = GridSpec(0, 0, 98, 3, 3)
    with pytest.raises(IndexError):
        cell_rect(g, 3, 0)


def test_cells_tile_grid_area():
    g = make_fishnet((5, -3, 205, 97), 25)
    total = 0.0
    for i in range(g.n_rows):
        for j in range(g.n_cols):
            xmin, ymin, xmax, ymax = cell_rect(g, i, j)
            total += (xmax - xmin) * (ymax - ymin)
    assert total == pytest.approx(g.n_rows * g.n_cols * g.cell_size ** 2)


def test_point_membership_half_open():
    g = GridSpec(0, 0, 98, 3, 3)
    assert (row_of(g, 0), col_of(g, 0)) == (0, 0)
    # interior boundary belongs to the cell on its upper side
    assert (row_of(g, 98), col_of(g, 98)) == (1, 1)
    # grid's outer top/right edge is closed
    assert (row_of(g, 294), col_of(g, 294)) == (2, 2)
    assert col_of(g, 294.0001) == -1
    assert col_of(g, -0.0001) == -1


def test_index_helpers_off_origin_grid():
    g = GridSpec(10, 20, 7, 5, 4)
    for x, y, expected in [(10, 20, (0, 0)), (44.99, 47.99, (3, 4)), (45, 48, (3, 4)),
                           (9, 19, (-1, -1)), (46, 49, (-1, -1))]:
        assert (row_of(g, y), col_of(g, x)) == expected


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        GridSpec(0, 0, -1, 3, 3)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 98, 0, 3)
