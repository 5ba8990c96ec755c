"""Tests for the SSSJ baseline (multiple matching, no replication)."""

import numpy as np
import pytest

from repro.joins.sssj import SSSJJoin

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


def x_range(a, b):
    mbb = a.boxes.mbb().union(b.boxes.mbb())
    return (mbb.lo[0], mbb.hi[0])


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
    @pytest.mark.parametrize("strips", [1, 4, 16])
    def test_matches_oracle(self, kind, strips):
        a, b = dataset_pair(kind, 700, 1000, seed=strips)
        algo = SSSJJoin(strips=strips, x_range=x_range(a, b))
        result, _, _ = run_join(algo, make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_boundary_straddling_elements(self):
        """Elements spanning strips must pair correctly across strips."""
        a, b = dataset_pair("uniform", 1200, 1200, seed=8)
        # Very fine strips force many spanning elements.
        algo = SSSJJoin(strips=64, x_range=x_range(a, b))
        disk = make_disk()
        ia, build_a = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        assert build_a.extras["spanning_elements"] > 0
        result = algo.join(ia, ib)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_no_replication(self):
        """Multiple matching: every element stored exactly once."""
        a, _ = dataset_pair("uniform", 900, 10, seed=9)
        algo = SSSJJoin(strips=8)
        disk = make_disk()
        index, _ = algo.build_index(disk, a)
        stored = []
        for pages in index.strip_pages + [index.wide_pages]:
            for pid in pages:
                stored.extend(disk.peek(pid).ids.tolist())
        assert sorted(stored) == sorted(a.ids.tolist())


class TestConfiguration:
    def test_rejects_bad_strips(self):
        with pytest.raises(ValueError):
            SSSJJoin(strips=0)

    def test_layout_mismatch_rejected(self):
        a, b = dataset_pair("uniform", 300, 300)
        disk = make_disk()
        ia, _ = SSSJJoin(strips=4).build_index(disk, a)
        ib, _ = SSSJJoin(strips=8).build_index(disk, b)
        with pytest.raises(ValueError, match="strip layout"):
            SSSJJoin().join(ia, ib)

    def test_different_disks_rejected(self):
        a, b = dataset_pair("uniform", 300, 300)
        algo = SSSJJoin(strips=4, x_range=x_range(a, b))
        ia, _ = algo.build_index(make_disk(), a)
        ib, _ = algo.build_index(make_disk(), b)
        with pytest.raises(ValueError, match="same disk"):
            algo.join(ia, ib)
