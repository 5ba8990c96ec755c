"""Degenerate-input stress tests across the whole stack.

Real spatial data contains exact ties (snapped coordinates), duplicate
geometry, zero-volume boxes and tiny datasets; the eps-guards and tie
handling in the partitioners and the transformation ratios exist for
these inputs, so they get dedicated coverage.
"""

import numpy as np

from repro.core import TransformersJoin
from repro.geometry.boxes import BoxArray
from repro.joins import (
    BruteForceJoin,
    GipsyJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)
from repro.joins.base import Dataset

from tests.conftest import make_disk, run_join


def oracle(a, b):
    return BruteForceJoin().join(a, b).pair_set()


def make(name, lo, hi, id_offset=0):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    return Dataset(name, np.arange(id_offset, id_offset + n), BoxArray(lo, hi))


def algorithms(space):
    return [
        TransformersJoin(),
        PBSMJoin(space=space, resolution=2),
        SynchronizedRTreeJoin(),
        GipsyJoin(),
    ]


class TestCoincidentGeometry:
    def test_all_elements_at_same_point(self):
        """Every STR split degenerates; every volume is zero."""
        n = 200
        lo = np.tile([5.0, 5.0, 5.0], (n, 1))
        a = make("A", lo, lo + 0.5)
        b = make("B", lo, lo + 0.5, id_offset=10**9)
        expected = oracle(a, b)
        assert len(expected) == n * n
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name

    def test_duplicate_boxes_with_distinct_ids(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 10, size=(50, 3))
        lo = np.repeat(base, 4, axis=0)  # each box 4 times
        a = make("A", lo, lo + 1.0)
        b = make("B", lo[:80], lo[:80] + 1.0, id_offset=10**9)
        expected = oracle(a, b)
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name

    def test_snapped_grid_coordinates(self):
        """Integer-snapped coordinates create massive sort ties."""
        rng = np.random.default_rng(2)
        lo = rng.integers(0, 8, size=(600, 3)).astype(float)
        a = make("A", lo, lo + 1.0)
        lo_b = rng.integers(0, 8, size=(600, 3)).astype(float)
        b = make("B", lo_b, lo_b + 1.0, id_offset=10**9)
        expected = oracle(a, b)
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name


class TestZeroVolumeElements:
    def test_point_elements(self):
        rng = np.random.default_rng(3)
        pts_shared = rng.uniform(0, 5, size=(40, 3))
        a = make("A", pts_shared, pts_shared)
        b = make("B", pts_shared, pts_shared, id_offset=10**9)
        expected = oracle(a, b)
        assert len(expected) >= 40  # at least the exact matches
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name

    def test_flat_plate_elements(self):
        """Zero extent on one axis: volumes are zero, the ratio guards
        in the transformation logic must not blow up."""
        rng = np.random.default_rng(4)
        lo = rng.uniform(0, 10, size=(300, 3))
        hi = lo + rng.uniform(0.1, 1.0, size=(300, 3))
        hi[:, 2] = lo[:, 2]  # flat in z
        a = Dataset("A", np.arange(300), BoxArray(lo, hi))
        lo_b = rng.uniform(0, 10, size=(300, 3))
        hi_b = lo_b + rng.uniform(0.1, 1.0, size=(300, 3))
        hi_b[:, 2] = lo_b[:, 2]
        b = Dataset("B", np.arange(10**9, 10**9 + 300), BoxArray(lo_b, hi_b))
        expected = oracle(a, b)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.pair_set() == expected


class TestTinyDatasets:
    def test_single_element_each(self):
        a = make("A", [[0.0, 0, 0]], [[1.0, 1, 1]])
        b = make("B", [[0.5, 0.5, 0.5]], [[2.0, 2, 2]], id_offset=10)
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == {(0, 10)}, algo.name

    def test_single_vs_many(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(0, 10, size=(500, 3))
        b = make("B", lo, lo + 1.0, id_offset=10**9)
        a = make("A", [[5.0, 5, 5]], [[6.0, 6, 6]])
        expected = oracle(a, b)
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name

    def test_sub_page_datasets(self):
        """Both datasets fit on a single page: one unit, one node."""
        rng = np.random.default_rng(6)
        lo = rng.uniform(0, 3, size=(10, 3))
        a = make("A", lo, lo + 0.8)
        lo_b = rng.uniform(0, 3, size=(12, 3))
        b = make("B", lo_b, lo_b + 0.8, id_offset=10**9)
        expected = oracle(a, b)
        disk = make_disk()
        index, _ = TransformersJoin().build_index(disk, a)
        assert index.num_nodes == 1
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.pair_set() == expected


class TestExtremeAspectRatios:
    def test_needle_elements(self):
        """Elements 100x longer on one axis than the others."""
        rng = np.random.default_rng(7)
        lo = rng.uniform(0, 20, size=(400, 3))
        hi = lo + rng.uniform(0.01, 0.05, size=(400, 3))
        hi[:, 0] = lo[:, 0] + rng.uniform(2.0, 5.0, size=400)  # needles on x
        a = Dataset("A", np.arange(400), BoxArray(lo, hi))
        lo_b = rng.uniform(0, 20, size=(400, 3))
        hi_b = lo_b + rng.uniform(0.01, 0.05, size=(400, 3))
        hi_b[:, 1] = lo_b[:, 1] + rng.uniform(2.0, 5.0, size=400)  # on y
        b = Dataset("B", np.arange(10**9, 10**9 + 400), BoxArray(lo_b, hi_b))
        expected = oracle(a, b)
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name

    def test_one_giant_element_covering_everything(self):
        rng = np.random.default_rng(8)
        lo = rng.uniform(0, 10, size=(300, 3))
        b = make("B", lo, lo + 0.5, id_offset=10**9)
        a = make("A", [[-1.0, -1, -1]], [[12.0, 12, 12]])
        expected = oracle(a, b)
        assert len(expected) == 300
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algo in algorithms(space):
            result, _, _ = run_join(algo, make_disk(), a, b)
            assert result.pair_set() == expected, algo.name
