"""Uniform grids.

Space-oriented partitioning lays a regular grid over the data space and
assigns each element to every cell its MBB overlaps (the *multiple
assignment* strategy, paper Section VIII-B).  Two users in this
repository:

* PBSM partitions both datasets with one shared grid;
* the in-memory grid hash join builds a throw-away grid over one
  candidate set and probes it with the other.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.geometry.slots import SlotPickleMixin
from repro.vectorize import column_product, expand_counts


def expand_cell_blocks(
    lo_idx: np.ndarray, hi_idx: np.ndarray, resolution: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(cells, members)`` rows for boxes covering the inclusive cell
    blocks ``lo_idx[k] .. hi_idx[k]``, box-major and row-major inside a
    block: a mixed-radix counter over the per-axis spans, decoded.
    """
    spans = hi_idx - lo_idx + 1
    members, rem = expand_counts(column_product(spans), dtype=np.int64)
    members = members.astype(np.intp, copy=False)
    # One row gather per side; the axis loop then slices columns.
    lo_idx = np.take(lo_idx, members, axis=0)
    spans = np.take(spans, members, axis=0)
    # Decode the within-box counter last-axis-fastest (row-major),
    # folding each axis's coordinate straight into the flat id.
    cells = np.zeros(len(members), dtype=np.int64)
    weight = 1
    for axis in range(lo_idx.shape[1] - 1, -1, -1):
        radix = spans[:, axis]
        coord = lo_idx[:, axis] + rem % radix
        rem //= radix
        cells += coord * weight
        weight = weight * resolution
    return cells, members


class UniformGrid(SlotPickleMixin):
    """A regular grid of ``resolution**d`` cells over ``space``.

    >>> g = UniformGrid(Box((0, 0), (10, 10)), resolution=5)
    >>> g.num_cells
    25
    >>> g.flat_ids(g.cells_of_points([[1.0, 1.0], [9.0, 3.0]]))
    array([ 0, 21])
    """

    __slots__ = ("space", "resolution", "_lo", "_cell_size")

    def __init__(self, space: Box, resolution: int) -> None:
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        lo = np.asarray(space.lo, dtype=np.float64)
        extent = np.asarray(space.hi, dtype=np.float64) - lo
        # Degenerate axes (zero extent) get a unit-sized pseudo cell so
        # that coordinates on those axes all map to cell 0.
        extent = np.where(extent <= 0.0, 1.0, extent)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_cell_size", extent / resolution)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniformGrid instances are immutable")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Dimensionality of the grid."""
        return self.space.ndim

    @property
    def num_cells(self) -> int:
        """Total number of cells (``resolution ** ndim``)."""
        return self.resolution ** self.ndim

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------
    def _cells(self, points: np.ndarray) -> np.ndarray:
        """Per-axis cell indices of ``points``, clamped to the grid."""
        idx = np.floor((points - self._lo) / self._cell_size).astype(np.int64)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, self.resolution - 1, out=idx)
        return idx

    def cells_of_points(self, points: np.ndarray) -> np.ndarray:
        """Clamped ``(n, d)`` cell indices of ``(n, d)`` points."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise ValueError("points must have shape (n, ndim)")
        return self._cells(points)

    def flat_ids(self, cells: np.ndarray) -> np.ndarray:
        """Row-major flat ids of ``(n, d)`` cell indices."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self.ndim:
            raise ValueError("cells must have shape (n, ndim)")
        out = np.zeros(len(cells), dtype=np.int64)
        for axis in range(self.ndim):
            out = out * self.resolution + cells[:, axis]
        return out

    # ------------------------------------------------------------------
    # Bulk assignment
    # ------------------------------------------------------------------
    def assign_entries(self, boxes: BoxArray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised multiple-assignment as flat parallel arrays.

        Returns ``(cells, members)``: one row per (cell, box) assignment
        with ``cells[k]`` the flat cell id and ``members[k]`` the box
        index.  Rows are box-major — all of box 0's cells (row-major
        over the overlapped cell block), then box 1's, matching a
        streaming implementation's visit order.  The expansion is pure
        NumPy (:func:`expand_cell_blocks`).
        """
        if boxes.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        return expand_cell_blocks(
            self._cells(boxes.lo), self._cells(boxes.hi), self.resolution
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformGrid(resolution={self.resolution}, ndim={self.ndim})"
