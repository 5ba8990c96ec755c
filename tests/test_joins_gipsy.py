"""Tests for the GIPSY crawling join."""

import numpy as np
import pytest

from repro.joins.gipsy import GipsyJoin, build_partitioned_index

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
    def test_matches_oracle(self, kind):
        a, b = dataset_pair(kind, 700, 1400, seed=21)
        result, _, _ = run_join(GipsyJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    @pytest.mark.parametrize("outer", ["a", "b"])
    def test_forced_outer_role(self, outer):
        """GIPSY's result must not depend on which side is the outer —
        only its cost does (the paper's predetermination weakness)."""
        a, b = dataset_pair("contrast", 400, 1600, seed=22)
        result, _, _ = run_join(GipsyJoin(outer=outer), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_extreme_density_ratio(self):
        a, b = dataset_pair("uniform", 30, 3000, seed=23)
        result, _, _ = run_join(GipsyJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_auto_picks_smaller_as_outer(self):
        a, b = dataset_pair("uniform", 100, 1500, seed=24)
        result, _, _ = run_join(GipsyJoin(), make_disk(), a, b)
        assert result.stats.extras["outer_dataset_is_a"] == 1.0
        result2, _, _ = run_join(GipsyJoin(), make_disk(), b, a)
        assert result2.stats.extras["outer_dataset_is_a"] == 0.0


class TestIndex:
    def test_partition_bounds_cover_elements_centers(self):
        a, _ = dataset_pair("clustered", 800, 100, seed=25)
        disk = make_disk()
        index, stats = build_partitioned_index(disk, a, "GIPSY")
        assert stats.extras["partitions"] == index.num_partitions
        centers = a.boxes.centers()
        # Every element centre lies in some partition's bounds.
        for i in range(0, len(a), 37):
            inside = np.any(
                np.all(
                    (index.part_lo <= centers[i]) & (index.part_hi >= centers[i]),
                    axis=1,
                )
            )
            assert inside

    def test_neighbor_lists_are_symmetric(self):
        a, _ = dataset_pair("uniform", 900, 100, seed=26)
        index, _ = build_partitioned_index(make_disk(), a, "GIPSY")
        for i, ns in enumerate(index.neighbors):
            for j in ns:
                assert i in index.neighbors[int(j)]

    def test_rejects_bad_outer(self):
        with pytest.raises(ValueError):
            GipsyJoin(outer="c")

    def test_different_disks_rejected(self):
        a, b = dataset_pair("uniform", 200, 200)
        algo = GipsyJoin()
        ia, _ = algo.build_index(make_disk(), a)
        ib, _ = algo.build_index(make_disk(), b)
        with pytest.raises(ValueError, match="same disk"):
            algo.join(ia, ib)


class TestCostShape:
    def test_metadata_work_scales_with_outer_size(self):
        """GIPSY pays exploration per outer element — the static-strategy
        weakness TRANSFORMERS removes."""
        small_outer, inner = dataset_pair("uniform", 100, 2000, seed=27)
        big_outer, inner2 = dataset_pair("uniform", 1000, 2000, seed=27)
        r_small, _, _ = run_join(GipsyJoin(outer="a"), make_disk(), small_outer, inner)
        r_big, _, _ = run_join(GipsyJoin(outer="a"), make_disk(), big_outer, inner2)
        assert (
            r_big.stats.metadata_comparisons
            > 3 * r_small.stats.metadata_comparisons
        )
