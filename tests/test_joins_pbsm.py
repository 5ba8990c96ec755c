"""Tests for the PBSM baseline."""

import numpy as np
import pytest

from repro.geometry.boxes import BoxArray
from repro.joins.pbsm import PBSMJoin
from repro.storage.page import ElementPage, element_page_capacity

from tests.conftest import (
    TEST_PAGE_SIZE,
    counted_constructions,
    dataset_pair,
    make_disk,
    oracle_pairs,
    run_join,
)


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
    @pytest.mark.parametrize("resolution", [2, 5])
    def test_matches_oracle(self, kind, resolution):
        a, b = dataset_pair(kind, 900, 1100, seed=resolution)
        space = a.boxes.mbb().union(b.boxes.mbb())
        algo = PBSMJoin(space=space, resolution=resolution)
        disk = make_disk()
        result, _, _ = run_join(algo, disk, a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_duplicates_are_dropped_not_reported(self):
        a, b = dataset_pair("uniform", 800, 800, seed=9)
        space = a.boxes.mbb().union(b.boxes.mbb())
        algo = PBSMJoin(space=space, resolution=6)
        result, _, _ = run_join(algo, make_disk(), a, b)
        pairs = [tuple(p) for p in result.pairs]
        assert len(pairs) == len(set(pairs))
        # With a fine grid some replication must actually have happened.
        assert result.stats.extras["replication_factor_a"] > 1.0


class TestConfiguration:
    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            PBSMJoin(resolution=0)

    def test_grid_mismatch_rejected(self):
        a, b = dataset_pair("uniform", 300, 300)
        disk = make_disk()
        ia, _ = PBSMJoin(resolution=4).build_index(disk, a)  # own-extent grid
        ib, _ = PBSMJoin(resolution=8).build_index(disk, b)
        with pytest.raises(ValueError, match="same grid"):
            PBSMJoin().join(ia, ib)


class TestIOBehaviour:
    def test_join_reads_are_random(self):
        """The paper's key PBSM observation: interleaved spills make the
        join phase's reads almost exclusively random."""
        a, b = dataset_pair("uniform", 2500, 2500, seed=3)
        space = a.boxes.mbb().union(b.boxes.mbb())
        algo = PBSMJoin(space=space, resolution=5)
        result, _, _ = run_join(algo, make_disk(), a, b)
        js = result.stats
        assert js.random_reads > 0.9 * js.pages_read

    def test_index_phase_writes_at_least_all_elements(self):
        a, b = dataset_pair("uniform", 1500, 1500, seed=4)
        space = a.boxes.mbb().union(b.boxes.mbb())
        algo = PBSMJoin(space=space, resolution=4)
        disk = make_disk()
        _, build_a = algo.build_index(disk, a)
        min_pages = len(a) / element_page_capacity(TEST_PAGE_SIZE, 3)
        assert build_a.pages_written >= min_pages

    def test_replication_reported(self):
        a, b = dataset_pair("uniform", 1000, 1000, seed=5)
        space = a.boxes.mbb().union(b.boxes.mbb())
        algo = PBSMJoin(space=space, resolution=8)
        disk = make_disk()
        index, build = algo.build_index(disk, a)
        assert build.extras["replication_factor"] == index.replication_factor
        assert index.replication_factor >= 1.0


class TestInterpreterWork:
    """The build permutes the replicated rows into flush order once and
    splits the run into pages: no constructor runs per spilled page.
    Counted, not timed."""

    @staticmethod
    def constructions(monkeypatch, n):
        a, b = dataset_pair("uniform", n, n, seed=6)
        algo = PBSMJoin(space=a.boxes.mbb().union(b.boxes.mbb()), resolution=4)
        disk = make_disk()
        with counted_constructions(monkeypatch, BoxArray, ElementPage) as calls:
            _, build = algo.build_index(disk, a)
        return calls[BoxArray], calls[ElementPage], build.pages_written

    def test_constructions_do_not_grow_with_the_page_count(self, monkeypatch):
        small = self.constructions(monkeypatch, 1_000)
        large = self.constructions(monkeypatch, 4_000)
        assert large[2] >= 2 * small[2]  # the sizes do differ
        assert large[:2] == small[:2]
        assert small[0] <= 6 and small[1] <= 2
