"""Behavioural tests for :class:`repro.service.SpatialQueryService`.

Covers the tentpole contract: catalog resolution, result-cache
hits/misses with byte-identical reports, invalidation exactness on
re-registration, range queries off cached indexes, failure isolation,
and the ``ServiceStats`` snapshot.
"""

import pickle

import numpy as np
import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.service import (
    ResultCache,
    ServiceStats,
    SpatialQueryService,
    dataset_fingerprint,
)

from tests.conftest import live_pages


@pytest.fixture
def trio():
    """Three small registered datasets with disjoint id spaces."""
    space = scaled_space(600)
    a = uniform_dataset(200, seed=1, name="A", space=space)
    b = uniform_dataset(200, seed=2, name="B", id_offset=10**9, space=space)
    c = uniform_dataset(200, seed=3, name="C", id_offset=2 * 10**9, space=space)
    service = SpatialQueryService()
    service.register("a", a)
    service.register("b", b)
    service.register("c", c)
    return service, a, b, c, space


class TestSubmit:
    def test_miss_then_hit_byte_identical(self, trio):
        service, *_ = trio
        request = JoinRequest("a", "b", algorithm="transformers")
        cold = service.submit(request)
        warm = service.submit(request)
        assert not cold.cached and warm.cached
        assert warm.report is cold.report
        assert pickle.dumps(warm.report) == pickle.dumps(cold.report)
        stats = service.stats()
        assert stats.requests == 2
        assert (stats.cache_hits, stats.cache_misses) == (1, 2 - 1)

    def test_hit_requires_equal_algorithm_and_params(self, trio):
        service, *_ = trio
        assert not service.submit(JoinRequest("a", "b", "transformers")).cached
        assert not service.submit(JoinRequest("a", "b", "pbsm")).cached
        assert not service.submit(
            JoinRequest("a", "b", "pbsm", parameters={"resolution": 4})
        ).cached
        assert service.submit(JoinRequest("a", "b", "pbsm")).cached

    def test_concrete_datasets_share_cache_with_names(self, trio):
        """Cache is content-addressed: objects and names interoperate."""
        service, a, b, *_ = trio
        cold = service.submit(JoinRequest(a, b, "transformers"))
        warm = service.submit(JoinRequest("a", "b", "transformers"))
        assert not cold.cached and warm.cached
        assert warm.report is cold.report

    def test_auto_algorithm_is_cacheable(self, trio):
        service, *_ = trio
        assert not service.submit(JoinRequest("a", "c", "auto")).cached
        assert service.submit(JoinRequest("a", "c", "auto")).cached

    def test_unknown_name_lists_registered(self, trio):
        service, *_ = trio
        with pytest.raises(KeyError, match="a, b, c"):
            service.submit(JoinRequest("a", "nope", "transformers"))

    def test_unresolvable_request_does_not_count(self, trio):
        """A submission that cannot name its inputs never probes the
        cache — and therefore must not count as a request, or the
        ``hits + misses == requests`` invariant would break."""
        service, *_ = trio
        with pytest.raises(KeyError):
            service.submit(JoinRequest("a", "ghost", "transformers"))
        stats = service.stats()
        assert stats.requests == 0
        assert stats.cache_hits + stats.cache_misses == stats.requests

    def test_unresolvable_batch_is_atomic(self, trio):
        """One bad name aborts the whole batch before any state moves:
        no counters advance, no cache slot is probed, nothing runs."""
        service, *_ = trio
        with pytest.raises(KeyError):
            service.submit_many(
                [
                    JoinRequest("a", "b", "transformers"),  # resolvable
                    JoinRequest("a", "ghost", "transformers"),
                ]
            )
        stats = service.stats()
        assert stats.requests == 0
        assert stats.cache_hits + stats.cache_misses == stats.requests
        assert stats.cache_size == 0

    def test_unsupported_side_type_is_rejected(self, trio):
        service, *_ = trio
        with pytest.raises(TypeError, match="got int"):
            service.submit(JoinRequest(42, "b", "transformers"))
        stats = service.stats()
        assert stats.requests == 0

    def test_results_match_fresh_workspace(self, trio):
        """Service-served results equal the engine's direct answer."""
        from repro import SpatialWorkspace

        service, a, b, _, space = trio
        served = service.submit(JoinRequest("a", "b", "pbsm")).report
        direct = SpatialWorkspace().join(a, b, algorithm="pbsm")
        assert served.pair_set() == direct.pair_set()
        assert served.join_cost == direct.join_cost


class TestSubmitMany:
    def test_order_preserved_and_duplicates_share_execution(self, trio):
        service, *_ = trio
        responses = service.submit_many(
            [
                JoinRequest("a", "b", "transformers"),
                JoinRequest("a", "c", "transformers"),
                JoinRequest("a", "b", "transformers"),  # duplicate key
            ]
        )
        assert [r.label for r in responses] == [
            "transformers(A, B)",
            "transformers(A, C)",
            "transformers(A, B)",
        ]
        # The duplicate executed once and shares the report object.
        assert responses[2].report is responses[0].report
        assert not responses[2].cached  # probed before the batch ran
        stats = service.stats()
        assert stats.requests == 3
        assert stats.cache_hits + stats.cache_misses == 3

    def test_mixed_hits_and_misses(self, trio):
        service, *_ = trio
        service.submit(JoinRequest("a", "b", "transformers"))
        responses = service.submit_many(
            [
                JoinRequest("a", "b", "transformers"),  # hit
                JoinRequest("b", "c", "transformers"),  # miss
            ]
        )
        assert responses[0].cached and not responses[1].cached
        assert all(r.ok for r in responses)


class TestInvalidation:
    def test_rebind_invalidates_exactly_that_names_entries(self, trio):
        service, a, b, c, space = trio
        service.submit(JoinRequest("a", "b", "transformers"))
        service.submit(JoinRequest("a", "c", "transformers"))

        changed = uniform_dataset(
            200, seed=77, name="B", id_offset=10**9, space=space
        )
        entry = service.register("b", changed)
        assert entry.version == 2
        assert service.stats().cache_invalidations == 1

        # (a, c) untouched; (a, b) recomputed against the new content.
        assert service.submit(JoinRequest("a", "c", "transformers")).cached
        fresh = service.submit(JoinRequest("a", "b", "transformers"))
        assert not fresh.cached
        assert service.catalog.resolve("b").dataset is changed
        # ...and the recomputation really joined the new content.
        assert fresh.report.pair_set() == (
            service.submit(JoinRequest(a, changed, "transformers"))
            .report.pair_set()
        )

    def test_rebind_same_content_invalidates_nothing(self, trio):
        service, _, b, _, space = trio
        service.submit(JoinRequest("a", "b", "transformers"))
        clone = uniform_dataset(
            200, seed=2, name="B", id_offset=10**9, space=space
        )
        assert dataset_fingerprint(clone) == dataset_fingerprint(b)
        entry = service.register("b", clone)
        assert entry.version == 1
        assert service.stats().cache_invalidations == 0
        assert service.submit(JoinRequest("a", "b", "transformers")).cached

    def test_alias_keeps_shared_content_alive(self, trio):
        """Entries survive a rebind while another name serves the content."""
        service, _, b, _, space = trio
        service.register("b-alias", b)
        service.submit(JoinRequest("a", "b", "transformers"))

        service.range_query("b-alias", space)
        indexes_before = service.query_workspace.cached_index_count

        changed = uniform_dataset(
            200, seed=78, name="B", id_offset=10**9, space=space
        )
        service.register("b", changed)
        # b-alias still serves the old content, so the cached entry is
        # still reachable (content-addressed) and must not be dropped —
        # and neither may the alias's range-query index.
        assert service.stats().cache_invalidations == 0
        assert service.submit(JoinRequest("a", "b-alias", "transformers")).cached
        assert service.query_workspace.cached_index_count == indexes_before
        before = service.query_workspace.disk.stats.pages_written
        service.range_query("b-alias", space)
        assert service.query_workspace.disk.stats.pages_written == before

    def test_rebind_drops_range_query_index(self, trio):
        service, a, _, _, space = trio
        service.range_query("a", space)
        assert service.query_workspace.cached_index_count == 1
        changed = uniform_dataset(200, seed=79, name="A", space=space)
        service.register("a", changed)
        assert service.query_workspace.cached_index_count == 0


class TestRangeQueryWorkspaceDoesNotLeak:
    def test_superseded_indexes_give_their_pages_back(self, trio):
        service, _, _, _, space = trio
        disk = service.query_workspace.disk
        per_index = []
        for step in range(40):
            content = uniform_dataset(
                200, seed=500 + step, name="A", space=space
            )
            service.register("a", content)
            before = disk.num_pages
            hits = service.range_query("a", space)
            assert len(hits) == len(content)
            per_index.append(disk.num_pages - before)
            assert live_pages(disk) <= 2 * max(per_index)
        assert disk.num_pages == sum(per_index)  # ids are never reused


class TestRangeQuery:
    def test_by_name_and_by_object_reuse_one_index(self, trio):
        service, a, _, _, space = trio
        hits1 = service.range_query("a", space)
        assert len(hits1) == len(a)
        before = service.query_workspace.disk.stats.pages_written
        hits2 = service.range_query(a, space)
        # Second query reuses the cached index: no index pages written.
        assert service.query_workspace.disk.stats.pages_written == before
        np.testing.assert_array_equal(np.sort(hits1), np.sort(hits2))
        stats = service.stats()
        assert stats.range_requests == 2
        assert stats.requests == 0  # range queries are not join requests

    def test_unknown_name_raises(self, trio):
        service, *_ , space = trio
        with pytest.raises(KeyError):
            service.range_query("ghost", space)


class TestFailures:
    def test_failed_request_is_isolated_and_not_cached(self, trio):
        service, a, *_ = trio
        space = scaled_space(600)
        overlapping = uniform_dataset(50, seed=9, name="bad", space=space)
        response = service.submit(
            JoinRequest(a, overlapping, "transformers")
        )
        assert not response.ok
        assert response.error_type == "ValueError"
        with pytest.raises(RuntimeError, match="ValueError"):
            response.raise_for_failure()
        stats = service.stats()
        assert stats.failures == 1
        assert stats.cache_size == 0  # failures never pollute the cache
        # The service keeps serving after a failure.
        assert service.submit(JoinRequest("a", "b", "pbsm")).ok


class TestEvictionAndStats:
    def test_result_cache_respects_bound(self, trio):
        _, a, b, c, space = trio
        service = SpatialQueryService(max_cached_results=2)
        for name, ds in (("a", a), ("b", b), ("c", c)):
            service.register(name, ds)
        service.submit(JoinRequest("a", "b", "transformers"))
        service.submit(JoinRequest("a", "c", "transformers"))
        service.submit(JoinRequest("b", "c", "transformers"))
        stats = service.stats()
        assert stats.cache_size <= 2
        assert stats.cache_evictions == 1
        # LRU: the oldest entry (a, b) was evicted, (b, c) survives.
        assert service.submit(JoinRequest("b", "c", "transformers")).cached
        assert not service.submit(JoinRequest("a", "b", "transformers")).cached

    def test_stats_snapshot_shape(self, trio):
        service, *_, space = trio
        service.submit(JoinRequest("a", "b", "transformers"))
        service.submit(JoinRequest("a", "b", "transformers"))
        service.range_query("a", space)
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.uptime_seconds > 0
        assert stats.throughput_rps > 0
        assert stats.catalog_size == 3
        assert stats.cache_hit_rate == 0.5
        lat = stats.latency_by_algorithm
        assert set(lat) == {"TRANSFORMERS", "range_query"}
        assert lat["TRANSFORMERS"]["count"] == 2
        for row in lat.values():
            assert row["p50_s"] <= row["p90_s"] <= row["p99_s"]
        as_dict = stats.as_dict()
        assert as_dict["requests"] == 2
        assert as_dict["cache_hit_rate"] == 0.5

    def test_latency_records_stay_bounded(self):
        """Lifetime count/mean are exact; the percentile sample is a
        bounded window, so memory stays O(1) per algorithm forever."""
        from repro.metrics import LatencyRecord

        record = LatencyRecord()
        n = LatencyRecord.WINDOW + 500
        for i in range(n):
            record.add(1.0)
        assert record.count == n
        assert len(record.recent) == LatencyRecord.WINDOW
        row = record.summary()
        assert row["count"] == float(n)
        assert row["mean_s"] == pytest.approx(1.0)
        assert row["p99_s"] == 1.0

    def test_fresh_service_stats_are_all_zero(self):
        stats = SpatialQueryService().stats()
        assert stats.requests == stats.range_requests == 0
        assert stats.cache_hit_rate == 0.0
        assert stats.throughput_rps == 0.0
        assert stats.latency_by_algorithm == {}


class TestCatalogOnService:
    def test_unregister_and_reject_bad_registrations(self, trio):
        service, a, *_ = trio
        entry = service.catalog.unregister("c")
        assert entry.name == "c"
        assert service.catalog.names() == ("a", "b")
        assert "c" not in service.catalog
        with pytest.raises(KeyError):
            service.catalog.unregister("c")
        with pytest.raises(ValueError, match="non-empty"):
            service.register("  ", a)
        with pytest.raises(TypeError, match="Dataset"):
            service.register("d", "not a dataset")


class TestResultCacheUnit:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_unbounded_cache_never_evicts(self):
        cache = ResultCache(None)
        for i in range(300):
            cache.put(("f", str(i), "t", None, None), object())
        assert len(cache) == 300
        assert cache.evictions == 0

    def test_hit_rate_and_lookups(self):
        cache = ResultCache(4)
        assert cache.hit_rate == 0.0
        key = ("fa", "fb", "t", None, None)
        assert cache.get(key) is None
        cache.put(key, object())
        assert cache.get(key) is not None
        assert cache.lookups == 2
        assert cache.hit_rate == 0.5

    def test_clear_counts_invalidations(self):
        cache = ResultCache(4)
        cache.put(("fa", "fb", "t", None, None), object())
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 1


class TestPlanningFromCatalogSketches:
    """The service plans registered pairs from stored sketches alone."""

    def test_plan_over_names_uses_stored_sketches(self, trio):
        service, a, b, *_ = trio
        report = service.plan("a", "b")
        assert report.stats_used
        assert report.algorithm == "transformers"
        assert report.est_pairs is not None
        assert len(report.candidates) >= 4

    def test_plan_matches_dataset_level_planning(self, trio):
        """Sketch-only planning agrees with planning from the data."""
        from repro.engine import plan_join

        service, a, b, *_ = trio
        via_catalog = service.plan("a", "b")
        via_data = plan_join(a, b, "auto", explain=True)
        assert via_catalog.algorithm == via_data.algorithm
        assert via_catalog.est_pairs == pytest.approx(via_data.est_pairs)

    def test_plan_accepts_concrete_datasets(self, trio):
        service, a, b, *_ = trio
        probe = uniform_dataset(
            150, seed=9, name="probe", id_offset=5 * 10**9,
            space=scaled_space(600),
        )
        report = service.plan("a", probe)
        assert report.stats_used

    def test_plan_unknown_name_raises(self, trio):
        service, *_ = trio
        with pytest.raises(KeyError, match="no dataset registered"):
            service.plan("a", "nope")

    def test_plan_rejects_unsupported_types(self, trio):
        service, *_ = trio
        with pytest.raises(TypeError, match="catalog names"):
            service.plan("a", 42)

    def test_catalog_sketch_shared_by_aliases_and_pruned(self, trio):
        service, a, *_ = trio
        catalog = service.catalog
        sketch = catalog.sketch_for("a")
        service.register("alias", a)  # same content, same sketch object
        assert catalog.sketch_for("alias") is sketch
        catalog.unregister("alias")
        assert catalog.sketch_for("a") is sketch  # still served
        assert catalog.sketch_by_fingerprint(
            catalog.resolve("a").fingerprint
        ) is sketch

    def test_rebinding_changed_content_replaces_sketch(self, trio):
        service, a, *_ = trio
        catalog = service.catalog
        old_sketch = catalog.sketch_for("a")
        old_fingerprint = catalog.resolve("a").fingerprint
        replacement = uniform_dataset(
            120, seed=77, name="A2", space=scaled_space(600)
        )
        service.register("a", replacement)
        assert catalog.sketch_for("a") is not old_sketch
        assert catalog.sketch_by_fingerprint(old_fingerprint) is None


class TestEstimatorAccuracyCounters:
    def test_auto_misses_record_predicted_vs_actual(self, trio):
        service, *_ = trio
        before = service.stats()
        assert before.estimator_predictions == 0
        assert before.pairs_estimate_ratio == 0.0

        response = service.submit(JoinRequest("a", "b", algorithm="auto"))
        assert response.ok and not response.cached
        stats = service.stats()
        assert stats.estimator_predictions == 1
        assert stats.actual_pairs == response.report.pairs_found
        assert stats.predicted_pairs > 0.0
        assert stats.actual_tests == response.report.intersection_tests
        # The planner's documented band bounds the aggregate ratio too.
        from repro.stats import ESTIMATE_ERROR_BAND

        assert (
            1.0 / ESTIMATE_ERROR_BAND
            <= stats.pairs_estimate_ratio
            <= ESTIMATE_ERROR_BAND
        )
        assert stats.tests_estimate_ratio > 0.0

    def test_cache_hits_do_not_recount_predictions(self, trio):
        service, *_ = trio
        request = JoinRequest("a", "b", algorithm="auto")
        service.submit(request)
        once = service.stats()
        hit = service.submit(request)
        assert hit.cached
        again = service.stats()
        assert again.estimator_predictions == once.estimator_predictions
        assert again.predicted_pairs == once.predicted_pairs

    def test_explicit_requests_record_nothing(self, trio):
        service, *_ = trio
        service.submit(JoinRequest("a", "b", algorithm="transformers"))
        stats = service.stats()
        assert stats.estimator_predictions == 0
        assert stats.as_dict()["estimator"]["predictions"] == 0

    def test_estimator_section_in_as_dict(self, trio):
        service, *_ = trio
        service.submit(JoinRequest("a", "c", algorithm="auto"))
        row = service.stats().as_dict()["estimator"]
        assert row["predictions"] == 1
        assert row["pairs_ratio"] > 0.0
        assert row["actual_tests"] > 0
