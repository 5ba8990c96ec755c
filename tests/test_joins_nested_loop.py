"""Tests for the indexed nested-loop baseline."""

import pytest

from repro.joins.nested_loop import IndexedNestedLoopJoin

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "massive"])
    def test_matches_oracle(self, kind):
        a, b = dataset_pair(kind, 600, 1200, seed=31)
        result, _, _ = run_join(IndexedNestedLoopJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    @pytest.mark.parametrize("outer", ["a", "b"])
    def test_forced_outer(self, outer):
        a, b = dataset_pair("uniform", 300, 900, seed=32)
        result, _, _ = run_join(IndexedNestedLoopJoin(outer=outer), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)


class TestBehaviour:
    def test_rejects_bad_outer(self):
        with pytest.raises(ValueError):
            IndexedNestedLoopJoin(outer="x")

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            IndexedNestedLoopJoin(buffer_pages=0)

    def test_different_disks_rejected(self):
        a, b = dataset_pair("uniform", 200, 200)
        algo = IndexedNestedLoopJoin()
        ia, _ = algo.build_index(make_disk(), a)
        ib, _ = algo.build_index(make_disk(), b)
        with pytest.raises(ValueError, match="same disk"):
            algo.join(ia, ib)

    def test_probe_cost_scales_with_outer(self):
        """The related-work claim: INL is only sensible when the outer is
        tiny — per-probe tests dominate as the outer grows."""
        a_small, b = dataset_pair("uniform", 50, 2000, seed=33)
        a_big, b2 = dataset_pair("uniform", 1500, 2000, seed=33)
        r_small, _, _ = run_join(IndexedNestedLoopJoin(outer="a"), make_disk(), a_small, b)
        r_big, _, _ = run_join(IndexedNestedLoopJoin(outer="a"), make_disk(), a_big, b2)
        assert (
            r_big.stats.intersection_tests
            > 5 * r_small.stats.intersection_tests
        )
