"""Tests for the uniform grid."""

import itertools

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.grid import UniformGrid


SPACE = Box((0.0, 0.0), (10.0, 10.0))


def per_box_assignment(
    grid: UniformGrid, boxes: BoxArray
) -> tuple[list[int], list[int]]:
    """``(cells, members)`` rows, one box at a time: the row-major flat
    id of every cell in the block between the cells of the box's two
    corners, enumerated by ``itertools.product``."""
    lo_cells = grid.cells_of_points(boxes.lo)
    hi_cells = grid.cells_of_points(boxes.hi)
    cells: list[int] = []
    members: list[int] = []
    for i in range(len(boxes)):
        ranges = [
            range(int(lo), int(hi) + 1)
            for lo, hi in zip(lo_cells[i], hi_cells[i])
        ]
        for cell in itertools.product(*ranges):
            flat = 0
            for c in cell:
                flat = flat * grid.resolution + c
            cells.append(flat)
            members.append(i)
    return cells, members


class TestBasics:
    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            UniformGrid(SPACE, 0)

    def test_num_cells(self):
        assert UniformGrid(SPACE, 5).num_cells == 25
        assert UniformGrid(Box((0,) * 3, (1,) * 3), 4).num_cells == 64

    def test_immutable(self):
        g = UniformGrid(SPACE, 5)
        with pytest.raises(AttributeError):
            g.resolution = 10


class TestCoordinateMapping:
    def test_cells_of_points(self):
        g = UniformGrid(SPACE, 5)  # cell side = 2.0
        cells = g.cells_of_points([[0.0, 0.0], [9.9, 0.1], [2.0, 3.9]])
        assert cells.tolist() == [[0, 0], [4, 0], [1, 1]]
        assert cells.dtype == np.int64

    def test_cells_of_points_clamps(self):
        g = UniformGrid(SPACE, 5)
        cells = g.cells_of_points([[-3.0, 12.0], [1e9, -1e9]])
        assert cells.tolist() == [[0, 4], [4, 0]]

    def test_a_point_on_an_inner_cell_face_goes_to_the_upper_cell(self):
        g = UniformGrid(SPACE, 5)  # faces at 2, 4, 6, 8
        cells = g.cells_of_points([[2.0, 4.0], [8.0, 6.0]])
        assert cells.tolist() == [[1, 2], [4, 3]]

    def test_boundary_point_goes_to_last_cell(self):
        g = UniformGrid(SPACE, 5)
        assert g.cells_of_points([[10.0, 10.0]]).tolist() == [[4, 4]]

    def test_degenerate_axis(self):
        flat_space = Box((0.0, 5.0), (10.0, 5.0))
        g = UniformGrid(flat_space, 4)
        cells = g.cells_of_points([[2.0, 5.0], [9.0, 5.0]])
        assert cells[:, 1].tolist() == [0, 0]
        assert cells[:, 0].tolist() == [0, 3]

    def test_flat_ids_row_major(self):
        g = UniformGrid(SPACE, 5)
        assert g.flat_ids([[0, 0], [1, 2], [4, 4]]).tolist() == [0, 7, 24]
        rng = np.random.default_rng(5)
        cells = rng.integers(0, 5, size=(40, 2))
        assert g.flat_ids(cells).tolist() == [
            5 * int(i) + int(j) for i, j in cells
        ]

    def test_flat_ids_row_major_in_three_dimensions(self):
        g = UniformGrid(Box((0,) * 3, (1,) * 3), 4)
        cells = np.array(list(itertools.product(range(4), repeat=3)))
        assert g.flat_ids(cells).tolist() == list(range(64))

    def test_shape_validation(self):
        g = UniformGrid(SPACE, 5)
        with pytest.raises(ValueError):
            g.cells_of_points(np.zeros((3,)))
        with pytest.raises(ValueError):
            g.flat_ids(np.zeros((3, 3), dtype=np.int64))


class TestAssignment:
    def _boxes(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 9, size=(n, 2))
        return BoxArray(lo, lo + rng.uniform(0, 1.5, size=(n, 2)))

    def test_assign_entries_enumerates_the_cell_block(self):
        g = UniformGrid(SPACE, 5)  # cell side = 2.0
        boxes = BoxArray.from_boxes([Box((0, 0), (3.9, 1.9))])
        cells, members = g.assign_entries(boxes)
        # Cells (0, 0) and (1, 0), row-major.
        assert cells.tolist() == [0, 5]
        assert members.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_assignment_is_complete_with_no_spurious_entry(self, seed):
        """Every box is in every cell it overlaps and in no other, in
        box-major rows and row-major within a box."""
        g = UniformGrid(SPACE, 5)
        boxes = self._boxes(seed=seed)
        cells, members = g.assign_entries(boxes)
        assert (cells.tolist(), members.tolist()) == per_box_assignment(
            g, boxes
        )

    def test_assignment_clamps_boxes_that_leave_the_grid(self):
        g = UniformGrid(SPACE, 5)
        boxes = BoxArray(
            np.array([[-4.0, 3.0], [9.0, -1.0]]),
            np.array([[1.0, 14.0], [12.0, 0.5]]),
        )
        cells, members = g.assign_entries(boxes)
        assert (cells.tolist(), members.tolist()) == per_box_assignment(
            g, boxes
        )
        assert cells.tolist() == [1, 2, 3, 4, 20]

    def test_assignment_rows_grow_with_resolution(self):
        boxes = self._boxes(seed=3)
        coarse = UniformGrid(SPACE, 2).assign_entries(boxes)[0]
        fine = UniformGrid(SPACE, 20).assign_entries(boxes)[0]
        assert len(boxes) <= len(coarse) < len(fine)

    def test_assign_dim_mismatch(self):
        g = UniformGrid(SPACE, 5)
        boxes = BoxArray(np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            g.assign_entries(boxes)

    def test_no_boxes_assign_no_rows(self):
        g = UniformGrid(SPACE, 5)
        cells, members = g.assign_entries(BoxArray.empty(2))
        assert cells.size == 0 and members.size == 0
