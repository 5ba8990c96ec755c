"""Service-layer throughput: the result cache under repeated traffic.

The acceptance claim of the service layer is concrete: a repeated
identical join must be served from the result cache byte-identically
and at least 20x faster than the cold run.  This benchmark asserts it
directly, plus the aggregate view — a second pass over a mixed batch
is deflected entirely by the cache, and ``ServiceStats`` reports the
deflection coherently.
"""

import pickle
import time

import pytest

from repro.datagen import dense_cluster, scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.service import SpatialQueryService

from benchmarks.conftest import BENCH_SCALE

#: The acceptance floor: cached re-serve vs cold execution.
MIN_CACHE_SPEEDUP = 20.0


@pytest.fixture(scope="module")
def service():
    n = max(400, round(8_000 * BENCH_SCALE))
    space = scaled_space(2 * n)
    svc = SpatialQueryService()
    svc.register(
        "uniform", uniform_dataset(n, seed=31, name="uniformA", space=space)
    )
    svc.register(
        "partner",
        uniform_dataset(n, seed=32, name="uniformB", id_offset=10**9, space=space),
    )
    svc.register(
        "clustered",
        dense_cluster(n, seed=33, name="dense", id_offset=2 * 10**9, space=space),
    )
    return svc


def test_cached_join_is_byte_identical_and_20x_faster(service):
    request = JoinRequest("uniform", "partner", algorithm="transformers")

    start = time.perf_counter()
    cold = service.submit(request)
    cold_seconds = time.perf_counter() - start
    assert not cold.cached

    # Best of five warm submits, timed here rather than through
    # pytest-benchmark, whose stats are absent under --benchmark-disable.
    warm_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        warm = service.submit(request)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert warm.cached
        # Byte-identical: the cached response *is* the cold run's report.
        assert pickle.dumps(warm.report) == pickle.dumps(cold.report)

    speedup = cold_seconds / warm_seconds
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"cache hit only {speedup:.1f}x faster than cold run "
        f"({cold_seconds:.4f}s vs {warm_seconds:.6f}s)"
    )


def test_second_pass_of_mixed_batch_is_fully_deflected(service):
    requests = [
        JoinRequest("uniform", "partner", algorithm="transformers"),
        JoinRequest("uniform", "partner", algorithm="pbsm"),
        JoinRequest("uniform", "clustered", algorithm="transformers"),
        JoinRequest("partner", "clustered", algorithm="auto"),
    ]

    start = time.perf_counter()
    first = service.submit_many(requests)
    first_seconds = time.perf_counter() - start
    start = time.perf_counter()
    second = service.submit_many(requests)
    second_seconds = time.perf_counter() - start

    assert all(r.ok for r in first + second)
    assert all(r.cached for r in second)
    for cold, warm in zip(first, second):
        assert warm.report is cold.report
    assert second_seconds < first_seconds

    stats = service.stats()
    assert stats.cache_hits + stats.cache_misses == stats.requests
    assert stats.failures == 0
    # Observability: every executed algorithm has a latency row whose
    # extremes straddle the hit/miss split.
    for name, row in stats.latency_by_algorithm.items():
        assert row["count"] > 0, name
        assert row["p50_s"] <= row["p99_s"]
