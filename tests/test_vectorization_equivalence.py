"""The filter kernels against their specification.

The grid hash join (PBSM, TRANSFORMERS) and the plane sweep (R-TREE)
produce the ``tests`` counter the paper's CPU-cost figures are built
from, so "close" is not good enough.  Over the seeded oracle corpus
every kernel call is checked for three things:

* its pairs are the nested-loop answer,
  :meth:`BoxArray.pairwise_intersections`;
* no pair is reported twice;
* ``tests`` equals the kernel's closed form — the work an
  element-at-a-time formulation performs, counted without running one
  (:func:`grid_hash_tests`, :func:`plane_sweep_tests`).
"""

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.grid import UniformGrid
from repro.joins.grid_hash import default_resolution, grid_hash_join
from repro.joins.plane_sweep import plane_sweep_join

from tests.test_index_grid import per_box_assignment
from tests.test_oracle_random import CASES

#: The corpus already drives every algorithm through the workspace; a
#: spread of its pairs (uniform/clustered/skewed plus all degenerates)
#: is plenty for the kernels without re-running all 27.
_KERNEL_CASES = [c for i, c in enumerate(CASES) if i % 3 == 0 or len(c[1]) == 0]
_IDS = [label for label, _, _ in _KERNEL_CASES]


def _pair_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in pairs}


def grid_hash_tests(
    build: BoxArray, probe: BoxArray, resolution: int | None = None
) -> int:
    """``tests`` of a grid hash join: every probe assignment row
    charges the full population of its cell's bucket, i.e.
    ``bincount(build_cells) @ bincount(probe_cells)`` on the kernel's
    grid (the union MBB at the default or the given resolution)."""
    if len(build) == 0 or len(probe) == 0:
        return 0
    if resolution is None:
        resolution = default_resolution(len(build), build.ndim)
    grid = UniformGrid(build.mbb().union(probe.mbb()), resolution)
    population = [
        np.bincount(grid.assign_entries(side)[0], minlength=grid.num_cells)
        for side in (build, probe)
    ]
    return int(population[0] @ population[1])


def plane_sweep_tests(a: BoxArray, b: BoxArray) -> int:
    """``tests`` of a forward plane sweep: ``a`` scans every ``b``
    opening inside its x-extent (ties included), ``b`` every ``a``
    opening strictly later inside its own."""
    a_lo, a_hi = a.lo[:, None, 0], a.hi[:, None, 0]
    b_lo, b_hi = b.lo[None, :, 0], b.hi[None, :, 0]
    return int(
        ((a_lo <= b_lo) & (b_lo <= a_hi)).sum()
        + ((b_lo < a_lo) & (a_lo <= b_hi)).sum()
    )


def assert_meets_specification(
    kernel_output: tuple[np.ndarray, int],
    a: BoxArray,
    b: BoxArray,
    expected_tests: int,
) -> None:
    pairs, tests = kernel_output
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert len(pairs) == len(_pair_set(pairs))  # no duplicate reports
    assert _pair_set(pairs) == _pair_set(a.pairwise_intersections(b))
    assert tests == expected_tests


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_IDS)
def test_grid_hash_join_meets_its_specification(case):
    _, a, b = case
    assert_meets_specification(
        grid_hash_join(a.boxes, b.boxes),
        a.boxes,
        b.boxes,
        grid_hash_tests(a.boxes, b.boxes),
    )


@pytest.mark.parametrize("resolution", [1, 3, 9])
@pytest.mark.parametrize("case", _KERNEL_CASES[:4], ids=_IDS[:4])
def test_grid_hash_join_meets_its_specification_across_resolutions(
    case, resolution
):
    _, a, b = case
    assert_meets_specification(
        grid_hash_join(a.boxes, b.boxes, resolution),
        a.boxes,
        b.boxes,
        grid_hash_tests(a.boxes, b.boxes, resolution),
    )


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_IDS)
def test_plane_sweep_join_meets_its_specification(case):
    _, a, b = case
    assert_meets_specification(
        plane_sweep_join(a.boxes, b.boxes),
        a.boxes,
        b.boxes,
        plane_sweep_tests(a.boxes, b.boxes),
    )


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_IDS)
@pytest.mark.parametrize("resolution", [2, 5])
def test_assign_entries_lists_each_box_cell_block(case, resolution):
    """The vectorised expansion is the per-box enumeration, in the same
    box-major order (the order a streaming pass consumes)."""
    _, a, _ = case
    if len(a) == 0:
        space = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    else:
        space = a.boxes.mbb()
    grid = UniformGrid(space, resolution)
    cells, members = grid.assign_entries(a.boxes)
    assert (cells.tolist(), members.tolist()) == per_box_assignment(
        grid, a.boxes
    )


def _lattice_draws(
    rng: np.random.Generator, ndim: int, draws: int, widths: int = 4
):
    """Box pairs with integer corners, ``0 .. widths - 1`` wide: ties in
    the sweep's sort order and boxes on cell faces are the rule, not the
    exception."""
    for _ in range(draws):
        na, nb = rng.integers(1, 40, size=2)
        lo_a = rng.integers(0, 5, size=(na, ndim)).astype(float)
        lo_b = rng.integers(0, 5, size=(nb, ndim)).astype(float)
        yield (
            BoxArray(lo_a, lo_a + rng.integers(0, widths, size=(na, ndim))),
            BoxArray(lo_b, lo_b + rng.integers(0, widths, size=(nb, ndim))),
        )


def _assert_both_kernels_meet_their_specification(a, b):
    assert_meets_specification(
        plane_sweep_join(a, b), a, b, plane_sweep_tests(a, b)
    )
    for resolution in (None, 4):
        assert_meets_specification(
            grid_hash_join(a, b, resolution),
            a,
            b,
            grid_hash_tests(a, b, resolution),
        )


def test_ties_and_duplicate_coordinates():
    """Integer-lattice inputs maximise ties in the sweep's sort order
    and cell-boundary sits in the grid — the classic vectorization
    off-by-one territory."""
    rng = np.random.default_rng(20160516)
    for a, b in _lattice_draws(rng, 3, 25):
        _assert_both_kernels_meet_their_specification(a, b)


@pytest.mark.parametrize(
    "ndim, widths",
    [(1, 4), (2, 4), (4, 4), (5, 4), (5, 1)],
    ids=["1d", "2d", "4d", "5d", "5d-points"],
)
def test_ties_in_other_dimensionalities(ndim, widths):
    """The same lattice in 1-D (the sweep tests no axis past x), 2-D,
    4-D and 5-D.  5-D points on a grid of resolution 4 have more cells
    per assignment row than a bucket directory may, so those buckets
    are binary-searched."""
    rng = np.random.default_rng(ndim)
    for a, b in _lattice_draws(rng, ndim, 10, widths):
        _assert_both_kernels_meet_their_specification(a, b)
