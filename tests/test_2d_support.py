"""Two-dimensional support across the whole stack.

The paper's system is 3-D, but nothing in the partitioning, storage or
join logic is dimension-specific; GIS workloads (the introduction's
collision-detection motivation) are 2-D.  These tests run every join
end-to-end on 2-D data.
"""

import numpy as np
import pytest

from repro.core import TransformersJoin, build_transformers_index, range_query
from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.joins import (
    GipsyJoin,
    IndexedNestedLoopJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)
from repro.joins.base import Dataset
from repro.storage.buffer import BufferPool

from tests.conftest import make_disk, run_join


def dataset_2d(n, seed, name, id_offset=0, side=40.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, side, size=(n, 2))
    hi = lo + rng.uniform(0, 1.0, size=(n, 2))
    return Dataset(name, np.arange(id_offset, id_offset + n), BoxArray(lo, hi))


@pytest.fixture(scope="module")
def pair_2d():
    a = dataset_2d(1200, seed=1, name="A")
    b = dataset_2d(1200, seed=2, name="B", id_offset=10**9)
    idx = a.boxes.pairwise_intersections(b.boxes)
    oracle = {
        (int(a.ids[i]), int(b.ids[j])) for i, j in idx
    }
    return a, b, oracle


class TestJoins2D:
    def test_transformers(self, pair_2d):
        a, b, oracle = pair_2d
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle

    def test_pbsm(self, pair_2d):
        a, b, oracle = pair_2d
        space = a.boxes.mbb().union(b.boxes.mbb())
        result, _, _ = run_join(PBSMJoin(space=space, resolution=6), make_disk(), a, b)
        assert result.pair_set() == oracle

    def test_sync_rtree(self, pair_2d):
        a, b, oracle = pair_2d
        result, _, _ = run_join(SynchronizedRTreeJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle

    def test_gipsy(self, pair_2d):
        a, b, oracle = pair_2d
        result, _, _ = run_join(GipsyJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle

    def test_nested_loop(self, pair_2d):
        a, b, oracle = pair_2d
        result, _, _ = run_join(IndexedNestedLoopJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle


class TestRangeQuery2D:
    def test_matches_brute(self):
        data = dataset_2d(1500, seed=5, name="d")
        disk = make_disk()
        index, _ = build_transformers_index(disk, data)
        pool = BufferPool(disk, 512)
        rng = np.random.default_rng(9)
        for _ in range(6):
            center = rng.uniform(5, 35, size=2)
            query = Box(tuple(center - 2), tuple(center + 2))
            got = range_query(index, query, pool)
            expected = np.sort(data.ids[data.boxes.intersects_box(query)])
            assert np.array_equal(got, expected)
