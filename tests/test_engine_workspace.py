"""Tests for SpatialWorkspace: joins, index cache, range queries."""

import numpy as np
import pytest

from repro import (
    RunReport,
    SpatialWorkspace,
    available_algorithms,
)
from repro.core import TransformersJoin
from repro.datagen import scaled_space, uniform_dataset
from repro.engine.workspace import algorithm_signature
from repro.joins import PBSMJoin

from tests.conftest import (
    dataset_pair,
    live_pages,
    make_disk,
    oracle_pairs,
    run_join,
)


def _triple(n=300, seed=31):
    """Datasets A, B, C with disjoint id spaces in one shared space."""
    space = scaled_space(3 * n)
    a = uniform_dataset(n, seed=seed, name="A", space=space)
    b = uniform_dataset(
        n, seed=seed + 1, name="B", id_offset=10**9, space=space
    )
    c = uniform_dataset(
        n, seed=seed + 2, name="C", id_offset=2 * 10**9, space=space
    )
    return a, b, c


class TestJoinEquivalence:
    @pytest.mark.parametrize("name", available_algorithms())
    def test_workspace_matches_oracle(self, name):
        a, b = dataset_pair("clustered", 250, 250, seed=32)
        report = SpatialWorkspace().join(a, b, algorithm=name)
        assert report.pair_set() == oracle_pairs(a, b)

    def test_accepts_configured_instance(self):
        a, b = dataset_pair("uniform", 250, 250, seed=33)
        space = scaled_space(500)
        algo = PBSMJoin(space=space, resolution=5)
        report = SpatialWorkspace().join(a, b, algorithm=algo)
        assert report.algorithm == "PBSM"
        assert report.pair_set() == oracle_pairs(a, b)

    def test_planner_inputs_rejected_for_instances(self):
        """space/parameters configure the planner; silently dropping
        them under a pre-configured instance would hide bugs."""
        a, b = dataset_pair("uniform", 100, 100, seed=42)
        with pytest.raises(ValueError, match="planner inputs"):
            SpatialWorkspace().join(
                a, b, algorithm=TransformersJoin(), space=scaled_space(200)
            )
        with pytest.raises(ValueError, match="planner inputs"):
            SpatialWorkspace().join(
                a, b, algorithm=TransformersJoin(),
                parameters={"resolution": 4},
            )

    def test_algorithm_protocol_works_without_a_workspace(self):
        """``build_index`` x2 + ``join`` on a bare disk is the whole
        algorithm protocol the workspace drives."""
        a, b = dataset_pair("uniform", 250, 250, seed=34)
        result, build_a, build_b = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)
        assert build_a.pages_written > 0 and build_b.pages_written > 0


class TestIdDisjointness:
    def test_overlapping_ids_rejected(self):
        space = scaled_space(400)
        a = uniform_dataset(200, seed=35, name="left", space=space)
        b = uniform_dataset(200, seed=36, name="right", space=space)
        with pytest.raises(ValueError, match="'left' and 'right'"):
            SpatialWorkspace().join(a, b)

    def test_self_join_rejected(self):
        space = scaled_space(200)
        a = uniform_dataset(200, seed=37, name="self", space=space)
        with pytest.raises(ValueError, match="disjoint id"):
            SpatialWorkspace().join(a, a)

    def test_disjoint_ids_accepted(self):
        a, b = dataset_pair("uniform", 100, 100, seed=38)
        SpatialWorkspace().join(a, b)  # must not raise


class TestIndexCache:
    def test_second_join_reuses_first_index(self):
        """A ⋈ B then A ⋈ C: A's index pages are written exactly once
        (the acceptance criterion for Section VII-C1's reuse claim)."""
        a, b, c = _triple()
        ws = SpatialWorkspace()
        r1 = ws.join(a, b, algorithm="transformers")
        assert not r1.reused_a and not r1.reused_b
        assert r1.index_pages_written_a > 0

        pages_after_first = ws.disk.num_pages
        r2 = ws.join(a, c, algorithm="transformers")
        assert r2.reused_a and not r2.reused_b
        # Zero additional pages written for A's index; every new page
        # allocation belongs to C's build (pages_written can exceed the
        # allocation count because in-place B+-tree updates also count).
        assert r2.index_pages_written_a == 0
        new_pages = ws.disk.num_pages - pages_after_first
        assert 0 < new_pages <= r2.index_pages_written_b
        assert r2.pair_set() == oracle_pairs(a, c)

        # A third join over two cached datasets allocates nothing.
        r3 = ws.join(a, c, algorithm="transformers")
        assert r3.reused_a and r3.reused_b
        assert ws.disk.num_pages == pages_after_first + new_pages

    def test_reused_index_charges_no_index_cost(self):
        a, b, c = _triple()
        ws = SpatialWorkspace()
        r1 = ws.join(a, b)
        r2 = ws.join(a, c)
        build_b_cost = r2.build_b.total_cost(ws.cost_model)
        assert r2.index_cost == pytest.approx(build_b_cost)
        assert r1.index_cost > r2.index_cost

    def test_pbsm_is_never_reused(self):
        a, b, c = _triple()
        ws = SpatialWorkspace()
        ws.join(a, b, algorithm="pbsm")
        r2 = ws.join(a, c, algorithm="pbsm")
        assert not r2.reused_a
        assert r2.index_pages_written_a > 0

    def test_drop_indexes_forces_a_rebuild(self):
        a, b, c = _triple()
        ws = SpatialWorkspace()
        first = ws.join(a, b)
        ws.drop_indexes()
        r2 = ws.join(a, c)
        assert not r2.reused_a
        assert r2.index_pages_written_a == first.index_pages_written_a > 0

    def test_different_config_is_a_different_cache_key(self):
        from repro.core import TransformersConfig

        a, b, c = _triple()
        ws = SpatialWorkspace()
        ws.join(a, b, algorithm=TransformersJoin())
        r2 = ws.join(
            a, c, algorithm=TransformersJoin(TransformersConfig.overfit())
        )
        assert not r2.reused_a

    def test_build_index_returns_cached_handle(self):
        a, _, _ = _triple(n=200)
        ws = SpatialWorkspace()
        h1, stats1 = ws.build_index(a)
        h2, stats2 = ws.build_index(a)
        assert h1 is h2
        assert stats2 is stats1
        assert ws.cached_index_count == 1
        ws.drop_indexes()
        assert ws.cached_index_count == 0

    def test_build_index_never_caches_pair_level_indexes(self):
        """PBSM's grid is a pair-level artefact; build_index must not
        serve it as a per-dataset index later."""
        a, _, _ = _triple(n=200)
        ws = SpatialWorkspace()
        ws.build_index(a, "pbsm")
        assert ws.cached_index_count == 0
        ws.build_index(a, "transformers")
        assert ws.cached_index_count == 1

    def test_signature_ignores_private_attrs(self):
        sig = algorithm_signature(TransformersJoin())
        assert sig == algorithm_signature(TransformersJoin())
        assert "0x" not in sig


class TestPageRelease:
    """A dropped index gives its pages back: a long-lived workspace
    holds the payloads of its cached indexes and nothing else."""

    def test_forget_releases_and_the_next_use_rebuilds(self):
        ws = SpatialWorkspace()
        a, b, _ = _triple()
        ws.build_index(a)
        pages_a = ws.disk.num_pages
        first = ws.join(a, b, algorithm="transformers")
        query = a.boxes.mbb()
        hits = ws.range_query(a, query)
        assert live_pages(ws.disk) == ws.disk.num_pages
        assert ws.forget(a) == 1
        assert live_pages(ws.disk) == ws.disk.num_pages - pages_a
        again = ws.join(a, b, algorithm="transformers")
        assert not again.reused_a and again.reused_b
        assert again.result.pairs.tobytes() == first.result.pairs.tobytes()
        assert again.join_stats.pages_read == first.join_stats.pages_read
        np.testing.assert_array_equal(ws.range_query(a, query), hits)

    def test_eviction_and_drop_release(self):
        ws = SpatialWorkspace(max_cached_indexes=1)
        a, b, _ = _triple()
        # With room for one index the join still sees both sides: the
        # cache is trimmed when the join is done with the handles.
        report = ws.join(a, b, algorithm="transformers")
        assert report.pair_set() == oracle_pairs(a, b)
        assert ws.cached_index_count == 1 and ws.index_evictions == 1
        assert 0 < live_pages(ws.disk) <= ws.disk.num_pages // 2 + 1
        ws.drop_indexes()
        assert live_pages(ws.disk) == 0
        assert ws.join(a, b, algorithm="transformers").pair_set() == (
            report.pair_set()
        )

    def test_a_failing_join_still_trims_the_cache(self, monkeypatch):
        ws = SpatialWorkspace(max_cached_indexes=1)
        a, b, _ = _triple()

        def boom(self, index_a, index_b):
            raise RuntimeError("join failed")

        monkeypatch.setattr(TransformersJoin, "join", boom)
        with pytest.raises(RuntimeError, match="join failed"):
            ws.join(a, b, algorithm="transformers")
        assert ws.cached_index_count == 1 and ws.index_evictions == 1

    def test_an_evicted_handle_is_dead(self):
        """Documented lifetime: a raw handle lives as long as its cache
        entry, so its pages go when the entry is evicted."""
        ws = SpatialWorkspace(max_cached_indexes=1)
        a, b, _ = _triple()
        index_a, _ = ws.build_index(a)
        ws.build_index(b)
        with pytest.raises(KeyError, match="released"):
            ws.disk.peek(int(index_a.units.element_page_ids[0]))


class TestRangeQuery:
    def test_matches_full_scan(self):
        a, _, _ = _triple(n=400)
        ws = SpatialWorkspace()
        lo = np.asarray(a.boxes.lo).min(axis=0)
        hi = lo + (np.asarray(a.boxes.hi).max(axis=0) - lo) * 0.4
        from repro.geometry.box import Box

        query = Box(tuple(lo), tuple(hi))
        hits = ws.range_query(a, query)
        expected = np.sort(a.ids[a.boxes.intersects_box(query)])
        assert np.array_equal(hits, expected)

    def test_reuses_join_index(self):
        """After a join, range queries read the cached index: no new
        pages are allocated, only read."""
        a, b, _ = _triple()
        ws = SpatialWorkspace()
        ws.join(a, b, algorithm="transformers")
        pages_before = ws.disk.num_pages
        hits = ws.range_query(a, a.boxes.mbb())
        assert ws.disk.num_pages == pages_before
        assert len(hits) == len(a)
        assert ws.disk.stats.pages_read > 0

    def test_builds_index_on_demand(self):
        a, _, _ = _triple(n=200)
        ws = SpatialWorkspace()
        assert ws.cached_index_count == 0
        hits = ws.range_query(a, a.boxes.mbb())
        assert len(hits) == len(a)
        assert ws.cached_index_count == 1

    def test_a_dataset_name_is_a_type_error(self):
        """Names resolve in the service's catalog, not here."""
        ws = SpatialWorkspace()
        from repro.geometry.box import Box

        with pytest.raises(TypeError, match="SpatialQueryService"):
            ws.range_query("ghost", Box((0, 0, 0), (1, 1, 1)))
        with pytest.raises(TypeError, match="SpatialQueryService"):
            ws.build_index("ghost")
        assert ws.cached_index_count == 0


class TestRunReport:
    def test_row_matches_harness_schema(self):
        a, b = dataset_pair("uniform", 250, 250, seed=39)
        report = SpatialWorkspace().join(a, b)
        assert isinstance(report, RunReport)
        assert set(report.row()) == {
            "algorithm", "n_a", "n_b", "pairs", "index_cost", "join_cost",
            "join_io", "join_cpu", "tests", "join_wall_s",
        }

    def test_total_cost_combines_phases(self):
        a, b = dataset_pair("uniform", 250, 250, seed=40)
        ws = SpatialWorkspace()
        report = ws.join(a, b)
        assert report.total_cost() == pytest.approx(
            report.index_cost + report.join_cost
        )
        cheap_cpu = type(ws.cost_model)(
            intersection_test_cost=0.0, metadata_test_cost=0.0
        )
        assert report.total_cost(cheap_cpu) <= report.total_cost()

    def test_disk_model_sets_the_page_size(self):
        from repro.storage.disk import DiskModel

        a, b, _ = _triple()
        small = SpatialWorkspace(disk_model=DiskModel(page_size=512))
        large = SpatialWorkspace(disk_model=DiskModel(page_size=4096))
        assert small.page_size == small.disk.model.page_size == 512
        assert large.page_size == 4096
        r_small = small.join(a, b, algorithm="transformers")
        r_large = large.join(a, b, algorithm="transformers")
        assert r_small.pair_set() == r_large.pair_set()
        assert r_small.index_pages_written_a > r_large.index_pages_written_a

    def test_plan_attached_for_named_runs(self):
        a, b = dataset_pair("uniform", 200, 200, seed=41)
        report = SpatialWorkspace().join(a, b, algorithm="auto")
        assert report.plan is not None
        assert report.plan.algorithm == "transformers"
        assert report.algorithm == "TRANSFORMERS"
