"""Soak test: sustained traffic against one service under tight bounds.

Drives thousands of mixed requests through a single service whose
result cache is deliberately smaller than the hot key set, and asserts
the properties that make a long-lived process safe to run
indefinitely:

* bounded memory — the result cache never exceeds its bound, the
  eviction counter advances, and the catalog/index caches stay flat;
* no monotonic slowdown — late-phase latency stays within a generous
  factor of early-phase latency (a leak or an ever-growing scan would
  blow this up);
* counter coherence — ``hits + misses == requests`` after everything.

Deterministic under ``-p no:randomly``: the request schedule derives
from one fixed seed.
"""

import random

import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.geometry.box import Box
from repro.service import SpatialQueryService

#: Total join submissions of the single-service soak; the sharded soak
#: runs a quarter of them.
SOAK_REQUESTS = 3_000

#: Result-cache bound, deliberately far below the distinct key count.
CACHE_BOUND = 6

NAMES = ("n0", "n1", "n2", "n3")
ALGORITHMS = ("transformers", "pbsm")


@pytest.fixture(scope="module")
def service():
    space = scaled_space(240)
    svc = SpatialQueryService(max_cached_results=CACHE_BOUND)
    for i, name in enumerate(NAMES):
        svc.register(
            name,
            uniform_dataset(
                60, seed=300 + i, name=name, id_offset=i * 10**9, space=space
            ),
        )
    return svc, space


def test_soak_bounded_memory_and_stable_latency(service):
    svc, space = service
    rng = random.Random(4242)
    keys = [
        (a, b, algo)
        for a in NAMES
        for b in NAMES
        if a < b
        for algo in ALGORITHMS
    ]
    assert len(keys) > CACHE_BOUND  # the bound must actually bite

    probe = Box(space.lo, tuple(l + (h - l) * 0.5 for l, h in zip(space.lo, space.hi)))
    latencies: list[float] = []
    for i in range(SOAK_REQUESTS):
        name_a, name_b, algorithm = rng.choice(keys)
        response = svc.submit(JoinRequest(name_a, name_b, algorithm))
        response.raise_for_failure()
        latencies.append(response.wall_seconds)
        if i % 50 == 0:
            svc.range_query(rng.choice(NAMES), probe)
        # The bound holds *throughout*, not just at the end.
        if i % 100 == 0:
            assert svc.stats().cache_size <= CACHE_BOUND

    stats = svc.stats()

    # Counter coherence over the whole run.
    assert stats.requests == SOAK_REQUESTS
    assert stats.cache_hits + stats.cache_misses == stats.requests
    assert stats.failures == 0

    # Bounded memory: the cache hit its ceiling and cycled.
    assert stats.cache_size <= CACHE_BOUND
    assert stats.cache_evictions > 0
    assert stats.catalog_size == len(NAMES)
    # One range index per name: range queries are the query
    # workspace's only builds.
    assert svc.query_workspace.cached_index_count <= len(NAMES)

    # The tight bound forces steady-state recomputation, but the cache
    # still deflects real traffic.
    assert stats.cache_misses > CACHE_BOUND
    assert stats.cache_hits > 0

    # No monotonic slowdown: with a stationary schedule, late requests
    # must not be systematically slower than early ones.  The factor is
    # generous (scheduler noise, cache-state drift) — a leak-driven
    # slowdown grows without bound and blows past any constant.
    third = len(latencies) // 3
    early = sum(latencies[:third]) / third
    late = sum(latencies[-third:]) / third
    assert late <= 3.0 * early, (early, late)


def test_soak_latency_percentiles_reflect_cache_split(service):
    """After the soak, per-algorithm stats expose the hit/miss split.

    Runs after the soak test (module-scoped service): every algorithm
    latency sample mixes near-instant hits with real executions, so
    p50 <= p99 strictly orders and counts sum to the join total.
    """
    svc, _ = service
    # One unconditional request so the test also stands alone (when
    # cherry-picked without the soak, the service would be fresh).
    svc.submit(JoinRequest(NAMES[0], NAMES[1], ALGORITHMS[0]))
    stats = svc.stats()
    by_algo = stats.latency_by_algorithm
    join_counts = sum(
        int(row["count"])
        for name, row in by_algo.items()
        if name != "range_query"
    )
    # Failures aside (none here), every join submission left a sample.
    assert join_counts == stats.requests
    for row in by_algo.values():
        assert row["count"] > 0
        assert 0.0 <= row["p50_s"] <= row["p90_s"] <= row["p99_s"]
        assert row["mean_s"] > 0.0
    assert stats.throughput_rps > 0.0


def test_soak_sharded_tier_stays_coherent_under_rebind_traffic():
    """Sustained mixed traffic against the sharded tier, with rebinds.

    Inline shards keep the schedule deterministic; the properties are
    the sharded analogues of the single-process soak: the router's
    cache bound holds, counters add up across shards, rebinds never
    wedge a shard, and no request fails.
    """
    from repro.service import ShardedQueryService

    space = scaled_space(240)
    requests_total = SOAK_REQUESTS // 4
    variants = {
        name: [
            uniform_dataset(
                60,
                seed=500 + i * 10 + version,
                name=name,
                id_offset=i * 10**9,
                space=space,
            )
            for version in range(2)
        ]
        for i, name in enumerate(NAMES)
    }
    rng = random.Random(777)
    rebinds = 0
    with ShardedQueryService(
        3, inline=True, max_cached_results=CACHE_BOUND
    ) as svc:
        for name in NAMES:
            svc.register(name, variants[name][0])
        pairs = [(a, b) for a in NAMES for b in NAMES if a < b]
        for i in range(requests_total):
            name_a, name_b = rng.choice(pairs)
            response = svc.submit(
                JoinRequest(name_a, name_b, rng.choice(ALGORITHMS))
            )
            response.raise_for_failure()
            if i % 25 == 24:
                name = rng.choice(NAMES)
                svc.register(name, rng.choice(variants[name]))
                rebinds += 1
            if i % 40 == 0:
                svc.range_query(rng.choice(NAMES), space)
        stats = svc.stats()
        assert rebinds > 0
        assert stats.requests == requests_total
        assert stats.cache_hits + stats.cache_misses == stats.requests
        assert stats.failures == 0
        assert stats.rejected_requests == 0
        assert stats.catalog_size == len(NAMES)
        assert stats.cache_size <= CACHE_BOUND
        assert len(stats.per_shard) == 3
        assert sum(
            int(row["requests"]) for row in stats.per_shard
        ) == requests_total
