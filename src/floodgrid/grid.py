"""Fishnet tessellation over the study-area bounding box.

Cells are indexed (row, col), 0-based and row-major from the southwest
corner. Cell (i, j) spans the half-open rectangle
[origin_x + j*s, origin_x + (j+1)*s) x [origin_y + i*s, origin_y + (i+1)*s);
the grid's outer top and right edges are closed so boundary points are never
lost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Definition of a regular square fishnet grid."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.n_rows}x{self.n_cols}")

    @property
    def x_max(self) -> float:
        return self.origin_x + self.n_cols * self.cell_size

    @property
    def y_max(self) -> float:
        return self.origin_y + self.n_rows * self.cell_size

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def to_json(self) -> str:
        return json.dumps({
            "origin_x": self.origin_x,
            "origin_y": self.origin_y,
            "cell_size": self.cell_size,
            "n_cols": self.n_cols,
            "n_rows": self.n_rows,
        })


_MAX_CELLS = np.iinfo(np.int64).max


def make_fishnet(bbox: tuple[float, float, float, float], cell_size: float) -> GridSpec:
    """Build the fishnet covering ``bbox``, anchored at its southwest corner.

    Column and row counts are rounded up so the grid fully covers the box.
    The cell count must fit the int64 row-major cell index.
    """
    xmin, ymin, xmax, ymax = bbox
    if not all(math.isfinite(v) for v in bbox):
        raise ValueError(f"bbox must be finite, got {bbox!r}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate bbox {bbox!r}")
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    width, height = (xmax - xmin) / cell_size, (ymax - ymin) / cell_size
    if not (math.isfinite(width) and math.isfinite(height)
            and math.ceil(width) * math.ceil(height) <= _MAX_CELLS):
        raise ValueError(f"bbox {bbox!r} at cell_size {cell_size} needs too many cells "
                         f"(at most {_MAX_CELLS})")
    return GridSpec(
        origin_x=xmin,
        origin_y=ymin,
        cell_size=cell_size,
        n_cols=math.ceil(width),
        n_rows=math.ceil(height),
    )


def cell_rect(g: GridSpec, i: int, j: int) -> tuple[float, float, float, float]:
    """Rectangle (xmin, ymin, xmax, ymax) of cell (i, j)."""
    if not (0 <= i < g.n_rows and 0 <= j < g.n_cols):
        raise IndexError(f"cell ({i}, {j}) out of range for {g.n_rows}x{g.n_cols} grid")
    return (
        g.origin_x + j * g.cell_size,
        g.origin_y + i * g.cell_size,
        g.origin_x + (j + 1) * g.cell_size,
        g.origin_y + (i + 1) * g.cell_size,
    )


def col_of(g: GridSpec, x) -> "int | np.ndarray":
    """Column index for x coordinate(s); -1 where outside the grid.

    Index is floor((x - origin_x) / cell_size) with the right outer edge
    closed. Accepts scalars or numpy arrays.
    """
    q = np.floor((np.asarray(x, dtype=float) - g.origin_x) / g.cell_size).astype(np.int64)
    q = np.where(np.asarray(x, dtype=float) == g.x_max, g.n_cols - 1, q)
    q = np.where((q < 0) | (q >= g.n_cols), -1, q)
    if np.ndim(x) == 0:
        return int(q)
    return q


def row_of(g: GridSpec, y) -> "int | np.ndarray":
    """Row index for y coordinate(s); -1 where outside the grid."""
    q = np.floor((np.asarray(y, dtype=float) - g.origin_y) / g.cell_size).astype(np.int64)
    q = np.where(np.asarray(y, dtype=float) == g.y_max, g.n_rows - 1, q)
    q = np.where((q < 0) | (q >= g.n_rows), -1, q)
    if np.ndim(y) == 0:
        return int(q)
    return q
