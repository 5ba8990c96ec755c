"""Tests for the S³ (Size Separation Spatial Join) baseline."""

import numpy as np
import pytest

from repro.joins.s3 import S3Join

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


def shared_space(a, b):
    return a.boxes.mbb().union(b.boxes.mbb())


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
    @pytest.mark.parametrize("levels", [1, 3, 6])
    def test_matches_oracle(self, kind, levels):
        a, b = dataset_pair(kind, 700, 1000, seed=levels)
        algo = S3Join(levels=levels, space=shared_space(a, b))
        result, _, _ = run_join(algo, make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_large_elements_forced_to_top_levels(self):
        """Elements spanning cell boundaries at every level must land on
        level 0 and still join correctly with everything."""
        a, b = dataset_pair("uniform", 800, 800, seed=7)
        # Deep hierarchy: cells at level 9 are tiny, so most elements
        # live in mid levels and some straddlers bubble far up.
        algo = S3Join(levels=9, space=shared_space(a, b))
        disk = make_disk()
        ia, build_a = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        assert sum(ia.level_counts) == len(a)
        assert ia.level_counts[0] >= 0  # hierarchy accounted
        result = algo.join(ia, ib)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_no_replication(self):
        a, _ = dataset_pair("uniform", 900, 10, seed=8)
        algo = S3Join(levels=5)
        disk = make_disk()
        index, _ = algo.build_index(disk, a)
        stored = []
        for pages in index.cell_pages.values():
            for pid in pages:
                stored.extend(disk.peek(pid).ids.tolist())
        assert sorted(stored) == sorted(a.ids.tolist())

    def test_size_separation_property(self):
        """Bigger elements must sit on shallower levels on average."""
        a, _ = dataset_pair("uniform", 2000, 10, seed=9)
        algo = S3Join(levels=7)
        disk = make_disk()
        index, _ = algo.build_index(disk, a)
        # Volumes by level: collect from pages.
        level_mean_extent: dict[int, list[float]] = {}
        for (level, _cell), pages in index.cell_pages.items():
            for pid in pages:
                page = disk.peek(pid)
                level_mean_extent.setdefault(level, []).extend(
                    page.boxes.extents().max(axis=1).tolist()
                )
        means = {
            level: float(np.mean(v)) for level, v in level_mean_extent.items()
        }
        populated = sorted(means)
        if len(populated) >= 2:
            assert means[populated[0]] >= means[populated[-1]]


class TestConfiguration:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            S3Join(levels=0)
        with pytest.raises(ValueError):
            S3Join(buffer_pages=0)

    def test_hierarchy_mismatch_rejected(self):
        a, b = dataset_pair("uniform", 300, 300)
        disk = make_disk()
        space = shared_space(a, b)
        ia, _ = S3Join(levels=4, space=space).build_index(disk, a)
        ib, _ = S3Join(levels=6, space=space).build_index(disk, b)
        with pytest.raises(ValueError, match="hierarchy"):
            S3Join().join(ia, ib)

    def test_different_disks_rejected(self):
        a, b = dataset_pair("uniform", 300, 300)
        algo = S3Join(levels=4, space=shared_space(a, b))
        ia, _ = algo.build_index(make_disk(), a)
        ib, _ = algo.build_index(make_disk(), b)
        with pytest.raises(ValueError, match="same disk"):
            algo.join(ia, ib)

    def test_build_reports_level_histogram(self):
        a, _ = dataset_pair("uniform", 500, 10)
        algo = S3Join(levels=4)
        _, build = algo.build_index(make_disk(), a)
        total = sum(
            v for k, v in build.extras.items() if k.startswith("level_")
        )
        assert total == len(a)
