"""Tests for the synchronized R-tree traversal baseline."""

import pytest

from repro.joins.sync_rtree import SynchronizedRTreeJoin

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
    def test_matches_oracle(self, kind):
        a, b = dataset_pair(kind, 1000, 1000, seed=11)
        result, _, _ = run_join(SynchronizedRTreeJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_asymmetric_sizes(self):
        a, b = dataset_pair("uniform", 60, 3000, seed=12)
        result, _, _ = run_join(SynchronizedRTreeJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_no_duplicates(self):
        a, b = dataset_pair("clustered", 1200, 1200, seed=13)
        result, _, _ = run_join(SynchronizedRTreeJoin(), make_disk(), a, b)
        pairs = [tuple(p) for p in result.pairs]
        assert len(pairs) == len(set(pairs))


class TestBehaviour:
    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            SynchronizedRTreeJoin(buffer_pages=0)

    def test_counts_metadata_comparisons(self):
        """Inner-node MBB tests are the overlap cost the paper blames;
        they must be visible in the stats."""
        a, b = dataset_pair("uniform", 2000, 2000, seed=14)
        result, _, _ = run_join(SynchronizedRTreeJoin(), make_disk(), a, b)
        assert result.stats.metadata_comparisons > 0
        assert result.stats.intersection_tests > 0

    def test_build_reports_tree_shape(self):
        a, _ = dataset_pair("uniform", 2000, 100)
        algo = SynchronizedRTreeJoin()
        _, build = algo.build_index(make_disk(), a)
        assert build.extras["height"] >= 2
        assert build.extras["leaf_pages"] > 1
