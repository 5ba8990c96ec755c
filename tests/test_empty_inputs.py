"""Empty-dataset semantics of the workspace API and the planner.

The join boundary has short-circuited empty inputs since the batch
executor landed; these tests pin down the remaining single-dataset
entry points (``range_query`` / ``build_index``) and
the planner, none of which may crash with ``ValueError: empty BoxArray
has no MBB`` or misplan an empty side as a cardinality contrast.
"""

import numpy as np
import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import (
    EmptyIndex,
    SpatialWorkspace,
    available_algorithms,
    plan_join,
)
from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset


def _empty(name="empty", ndim=3, ids=()):
    return Dataset(
        name, np.asarray(ids, dtype=np.int64), BoxArray.empty(ndim)
    )


@pytest.fixture
def full():
    return uniform_dataset(300, seed=7, name="full", space=scaled_space(300))


class TestWorkspaceSingleDatasetOps:
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_build_index_returns_noop_index(self, algorithm):
        ws = SpatialWorkspace()
        handle, stats = ws.build_index(_empty(), algorithm)
        assert isinstance(handle, EmptyIndex)
        assert handle.num_elements == 0
        assert stats.phase == "index"
        assert stats.pages_written == 0
        assert ws.disk.num_pages == 0

    def test_range_query_returns_empty_hits(self):
        ws = SpatialWorkspace()
        hits = ws.range_query(_empty(), Box((0, 0, 0), (1, 1, 1)))
        assert hits.shape == (0,)
        assert hits.dtype == np.int64
        assert ws.disk.num_pages == 0  # nothing was built

    def test_empty_index_is_not_cached(self):
        ws = SpatialWorkspace()
        ws.build_index(_empty())
        assert ws.cached_index_count == 0

    def test_2d_empty_dataset(self):
        ws = SpatialWorkspace()
        handle, _ = ws.build_index(_empty(ndim=2))
        assert isinstance(handle, EmptyIndex)
        assert handle.ndim == 2

    def test_join_against_empty_still_short_circuits(self, full):
        report = SpatialWorkspace().join(full, _empty())
        assert report.pairs_found == 0
        assert report.pair_set() == set()

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_join_with_an_empty_side_builds_nothing(self, full, algorithm):
        ws = SpatialWorkspace()
        for a, b in ((full, _empty(ids=())), (_empty(ids=()), full)):
            report = ws.join(a, b, algorithm=algorithm)
            assert report.result.pairs.shape == (0, 2)
            assert report.build_a.pages_written == 0
            assert report.build_b.pages_written == 0
            assert report.plan.algorithm == algorithm
        assert ws.disk.num_pages == 0
        assert ws.cached_index_count == 0


class TestPlannerOnEmptyInputs:
    def test_auto_keeps_the_default_on_an_empty_side(self, full):
        for a, b in ((full, _empty()), (_empty("e", 3), full)):
            plan = plan_join(a, b, "auto")
            assert plan.algorithm == "transformers"
            assert "empty" in plan.reason

    def test_auto_on_two_empties(self):
        plan = plan_join(_empty("a"), _empty("b", ids=()), "auto")
        assert plan.algorithm == "transformers"
        assert "empty" in plan.reason

    def test_explicit_names_still_resolve_on_empty(self, full):
        for name in available_algorithms():
            plan = plan_join(full, _empty(), name)
            assert plan.algorithm == name
            assert plan.reason == "requested explicitly"


class TestIndexCacheLRU:
    def _datasets(self, k, n=150):
        return [
            uniform_dataset(
                n, seed=100 + i, name=f"d{i}", id_offset=i * 10**7,
                space=scaled_space(n),
            )
            for i in range(k)
        ]

    def test_eviction_order_is_least_recently_used(self):
        ws = SpatialWorkspace(max_cached_indexes=2)
        d0, d1, d2 = self._datasets(3)
        ws.build_index(d0)
        ws.build_index(d1)
        ws.build_index(d0)  # refresh d0: d1 becomes the LRU entry
        ws.build_index(d2)  # evicts d1
        assert ws.cached_index_count == 2
        assert ws.index_evictions == 1
        cached_ids = {key[0] for key in ws._cache}
        assert cached_ids == {d0.fingerprint, d2.fingerprint}

    def test_evicted_index_is_rebuilt_on_next_use(self):
        ws = SpatialWorkspace(max_cached_indexes=1)
        d0, d1 = self._datasets(2)
        first = ws.build_index(d0)[0]
        ws.build_index(d1)  # evicts d0
        assert ws.index_evictions == 1
        rebuilt = ws.build_index(d0)[0]
        assert rebuilt is not first  # a fresh build, not the old handle
        assert ws.index_evictions == 2  # and d1 got evicted in turn

    def test_join_reuse_respects_recency(self):
        """A ⋈ B then A ⋈ C with capacity 2: A stays cached (it was
        touched most recently before C's build evicts one entry)."""
        ws = SpatialWorkspace(max_cached_indexes=2)
        d0, d1, d2 = self._datasets(3, n=120)
        ws.join(d0, d1, algorithm="transformers")
        r2 = ws.join(d0, d2, algorithm="transformers")
        assert r2.reused_a
        assert ws.index_evictions == 1  # d1's index made room for d2's

    def test_range_query_refreshes_recency(self):
        """The query path must count as a use, or the LRU bound would
        evict the hottest index first."""
        ws = SpatialWorkspace(max_cached_indexes=2)
        d0, d1, d2 = self._datasets(3)
        ws.build_index(d0)
        ws.build_index(d1)
        ws.range_query(d0, d0.boxes.mbb())  # touch d0 via the query path
        ws.build_index(d2)  # must evict d1, not the just-queried d0
        cached_ids = {key[0] for key in ws._cache}
        assert cached_ids == {d0.fingerprint, d2.fingerprint}

    def test_empty_range_query_still_validates_dimensionality(self):
        with pytest.raises(ValueError, match="dimensionality"):
            SpatialWorkspace().range_query(
                _empty(ndim=2), Box((0, 0, 0), (1, 1, 1))
            )

    def test_unbounded_cache(self):
        ws = SpatialWorkspace(max_cached_indexes=None)
        for d in self._datasets(4, n=80):
            ws.build_index(d)
        assert ws.cached_index_count == 4
        assert ws.index_evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="max_cached_indexes"):
            SpatialWorkspace(max_cached_indexes=0)

    def test_drop_indexes_does_not_count_as_eviction(self):
        ws = SpatialWorkspace(max_cached_indexes=4)
        (d0,) = self._datasets(1)
        ws.build_index(d0)
        ws.drop_indexes()
        assert ws.cached_index_count == 0
        assert ws.index_evictions == 0
