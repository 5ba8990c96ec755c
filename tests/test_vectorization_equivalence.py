"""Vectorized kernels vs their element-at-a-time reference formulations.

The filter-phase kernels (grid hash join, plane sweep, grid multiple
assignment) were rewritten as NumPy batch operations; the loop-based
formulations are kept in-tree as ``*_reference`` precisely so this
suite can assert, over the seeded oracle corpus, that vectorization
changed *nothing observable*: identical pair sets AND identical
comparison counts (the paper's CPU-cost figures are built from those
counters, so "close" is not good enough).
"""

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.index.grid import UniformGrid
from repro.joins.grid_hash import grid_hash_join, grid_hash_join_reference
from repro.joins.plane_sweep import (
    plane_sweep_join,
    plane_sweep_join_reference,
)

from tests.test_oracle_random import CASES

#: The corpus already drives every algorithm through the workspace; a
#: spread of its pairs (uniform/clustered/skewed plus all degenerates)
#: is plenty for kernel-level equivalence without re-running all 27.
_KERNEL_CASES = [c for i, c in enumerate(CASES) if i % 3 == 0 or len(c[1]) == 0]
_IDS = [label for label, _, _ in _KERNEL_CASES]


def _pair_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in pairs}


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_IDS)
def test_grid_hash_join_matches_reference(case):
    _, a, b = case
    pairs, tests = grid_hash_join(a.boxes, b.boxes)
    ref_pairs, ref_tests = grid_hash_join_reference(a.boxes, b.boxes)
    assert tests == ref_tests
    assert _pair_set(pairs) == _pair_set(ref_pairs)
    assert len(pairs) == len(_pair_set(pairs))  # no duplicate reports


@pytest.mark.parametrize("resolution", [1, 3, 9])
@pytest.mark.parametrize("case", _KERNEL_CASES[:4], ids=_IDS[:4])
def test_grid_hash_join_matches_reference_across_resolutions(
    case, resolution
):
    _, a, b = case
    pairs, tests = grid_hash_join(a.boxes, b.boxes, resolution)
    ref_pairs, ref_tests = grid_hash_join_reference(
        a.boxes, b.boxes, resolution
    )
    assert tests == ref_tests
    assert _pair_set(pairs) == _pair_set(ref_pairs)


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_IDS)
def test_plane_sweep_join_matches_reference(case):
    _, a, b = case
    pairs, tests = plane_sweep_join(a.boxes, b.boxes)
    ref_pairs, ref_tests = plane_sweep_join_reference(a.boxes, b.boxes)
    assert tests == ref_tests
    assert _pair_set(pairs) == _pair_set(ref_pairs)
    assert len(pairs) == len(_pair_set(pairs))


@pytest.mark.parametrize("case", _KERNEL_CASES, ids=_IDS)
@pytest.mark.parametrize("resolution", [2, 5])
def test_assign_entries_matches_assign(case, resolution):
    """The vectorised expansion groups exactly like the bucket dict."""
    _, a, _ = case
    if len(a) == 0:
        space = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    else:
        space = a.boxes.mbb()
    grid = UniformGrid(space, resolution)
    cells, members = grid.assign_entries(a.boxes)
    rebuilt: dict[int, list[int]] = {}
    for cell, member in zip(cells.tolist(), members.tolist()):
        rebuilt.setdefault(cell, []).append(member)
    assert rebuilt == grid.assign(a.boxes)
    # Box-major expansion order (the order a streaming pass consumes).
    assert np.all(np.diff(members) >= 0)
    # Replication factor is derived from the same expansion.
    if len(a):
        assert grid.replication_factor(a.boxes) == pytest.approx(
            len(cells) / len(a)
        )


def test_ties_and_duplicate_coordinates():
    """Integer-lattice inputs maximise ties in the sweep's sort order
    and cell-boundary sits in the grid — the classic vectorization
    off-by-one territory."""
    rng = np.random.default_rng(20160516)
    from repro.geometry.boxes import BoxArray

    for _ in range(25):
        na, nb = rng.integers(1, 40, size=2)
        lo_a = rng.integers(0, 5, size=(na, 3)).astype(float)
        lo_b = rng.integers(0, 5, size=(nb, 3)).astype(float)
        a = BoxArray(lo_a, lo_a + rng.integers(0, 4, size=(na, 3)))
        b = BoxArray(lo_b, lo_b + rng.integers(0, 4, size=(nb, 3)))
        assert plane_sweep_join(a, b)[1] == plane_sweep_join_reference(a, b)[1]
        assert _pair_set(plane_sweep_join(a, b)[0]) == _pair_set(
            plane_sweep_join_reference(a, b)[0]
        )
        g, gt = grid_hash_join(a, b, 4)
        gr, grt = grid_hash_join_reference(a, b, 4)
        assert gt == grt
        assert _pair_set(g) == _pair_set(gr)

