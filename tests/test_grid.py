"""Fishnet construction and cell geometry."""

import pytest

from floodgrid.grid import GridSpec, cell_rect, col_of, make_fishnet, point_to_cell, row_of


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
    assert point_to_cell(g, 0, 0) == (0, 0)
    # interior boundary belongs to the cell on its upper side
    assert point_to_cell(g, 98, 98) == (1, 1)
    # grid's outer top/right edge is closed
    assert point_to_cell(g, 294, 294) == (2, 2)
    assert point_to_cell(g, 294.0001, 10) is None
    assert point_to_cell(g, -0.0001, 10) is None


def test_index_helpers_match_point_to_cell():
    g = GridSpec(10, 20, 7, 5, 4)
    for x, y in [(10, 20), (44.99, 47.99), (45, 48), (9, 19), (46, 49)]:
        expected = point_to_cell(g, x, y)
        i, j = row_of(g, y), col_of(g, x)
        if expected is None:
            assert i < 0 or j < 0
        else:
            assert (i, j) == expected


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        GridSpec(0, 0, -1, 3, 3)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 98, 0, 3)
