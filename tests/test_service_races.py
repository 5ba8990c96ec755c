"""Rebind-race pins: the cache fills and index builds that in-flight
invalidation must suppress.

Races of the shape *resolve under the lock, compute outside it,
publish under the lock again* — two shipped ones, and the delta path
that shares their shape:

1. **Join fill after rebind** — ``submit_many`` resolved a name to a
   fingerprint, released the lock to run the miss, and a ``register``
   rebind invalidated that fingerprint mid-flight.  Filling the result
   cache anyway resurrected an entry no name serves: a slot leak the
   invalidation counters never see, and a wrong *hit* if the same
   content is ever re-registered...  The fix re-validates at fill time
   (catalog generation fast path, ``names_bound_to`` slow path) and
   skips the fill, counted in ``cache_stale_fill_skips``.

2. **Range index build after forget()** — ``range_query`` resolved a
   name, released the lock to build/probe the index, and a rebind's
   ``forget()`` ran before the build finished: the freshly built index
   of the *old* dataset landed in the workspace cache after the purge,
   pinned until LRU pressure.  The fix drops it post-hoc, counted in
   ``stale_index_drops``.  Both tiers run the one range-query path
   (``QueryWorkspace.range_query``), so its tests run on both.

3. **Patched fill after partner rebind** — ``apply_delta`` patches
   cached entries outside the lock against the partner content bound
   *at that moment*; a rebind of the partner before the fill would
   file the patched report under a fingerprint no name serves.  The
   fill re-validates both fingerprints and is skipped, counted in
   ``cache_stale_fill_skips``.

4. **Router fill after rebind (sharded tier)** — the router resolved a
   name, sent the join to its owner shard, and a rebind retired the
   content before the reply came back.  Filing the reply in the
   router's cache kept an answer for retired content.  The router
   re-validates the name-resolved fingerprints when the reply lands,
   as the single tier does, and counts the skip in
   ``cache_stale_fill_skips``.

The deterministic tests below interpose on the exact window (executor
call / query-workspace lock acquisition) to force the interleaving
every run; the threaded stress test closes with the global invariant
both fixes protect: no cached result may reference an unbound
fingerprint.
"""

import threading

import numpy as np
import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.service import ShardedQueryService, SpatialQueryService
from repro.service.wire import JoinCommand
from repro.streaming import DatasetDelta


@pytest.fixture
def space():
    return scaled_space(600)


def _variant(seed: int, space, *, offset: int = 0):
    return uniform_dataset(120, seed=seed, name="V", id_offset=offset, space=space)


@pytest.fixture
def service(space):
    service = SpatialQueryService()
    service.register("a", _variant(1, space))
    service.register("b", _variant(2, space, offset=10**9))
    return service


@pytest.fixture(params=["single", "sharded"])
def tier(request, space):
    """Either tier, with ``a`` and ``b`` registered."""
    if request.param == "single":
        service = SpatialQueryService()
    else:
        service = ShardedQueryService(2, inline=True)
        request.addfinalizer(service.close)
    service.register("a", _variant(1, space))
    service.register("b", _variant(2, space, offset=10**9))
    return service


def _bound(tier, name):
    """The dataset ``name`` is bound to, on either tier."""
    if isinstance(tier, ShardedQueryService):
        return tier._names[name].dataset
    return tier.catalog.resolve(name).dataset


class _RebindOnRun:
    """Executor wrapper: runs the batch, then rebinds before the fill.

    ``_execute_misses`` calls the executor *outside* the service lock,
    so a same-thread rebind here lands in exactly the window a
    concurrent ``register`` would: after resolve, before fill.
    """

    def __init__(self, service, rebind):
        self._inner = service._executor
        self._rebind = rebind

    def run(self, requests):
        batch = self._inner.run(requests)
        self._rebind()
        return batch


class _RebindOnAcquire:
    """Query-workspace lock wrapper whose first acquisition triggers a
    rebind.

    ``range_query`` resolves under ``_lock``, then takes the query
    workspace's lock to build the index; firing the rebind inside
    ``__enter__`` (before delegating) recreates a ``forget()`` that
    completes while the build is still queued behind it.  The flag is
    set *before* rebinding so the rebind's own use of the lock passes
    straight through.
    """

    def __init__(self, inner, rebind):
        self._inner = inner
        self._rebind = rebind
        self._fired = False

    def __enter__(self):
        if not self._fired:
            self._fired = True
            self._rebind()
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


class TestJoinFillRace:
    def test_fill_after_rebind_is_skipped(self, service, space):
        old_fp = service.catalog.resolve("a").fingerprint
        service._executor = _RebindOnRun(
            service, lambda: service.register("a", _variant(71, space))
        )
        response = service.submit(JoinRequest("a", "b", "pbsm"))
        # The response itself is served: it was correct at resolve time.
        assert response.report is not None and response.error is None
        # But the fill was suppressed — no key of the cache references
        # the unbound fingerprint, and a resubmission misses.
        assert all(
            old_fp not in key[:2] for key in service._results._entries
        )
        assert response.key not in service._results
        assert service.stats().cache_stale_fill_skips == 1
        assert not service.submit(JoinRequest("a", "b", "pbsm")).cached

    def test_fill_survives_when_alias_still_serves_content(
        self, service, space
    ):
        """names_bound_to is the slow path: an alias keeps the fill."""
        service.register("alias", service.catalog.resolve("a").dataset)
        service._executor = _RebindOnRun(
            service, lambda: service.register("a", _variant(72, space))
        )
        response = service.submit(JoinRequest("a", "b", "pbsm"))
        # Generation moved, but the fingerprint is still bound via the
        # alias — the entry stays reachable, so the fill must land.
        assert response.key in service._results
        assert service.stats().cache_stale_fill_skips == 0
        assert service.submit(JoinRequest("alias", "b", "pbsm")).cached

    def test_fill_after_unregister_is_skipped(self, service, space):
        service._executor = _RebindOnRun(
            service, lambda: service.unregister("a")
        )
        response = service.submit(JoinRequest("a", "b", "pbsm"))
        assert response.report is not None
        assert response.key not in service._results
        assert service.stats().cache_stale_fill_skips == 1

    def test_concrete_sides_always_fill(self, service, space):
        """Caller-managed datasets have no catalog binding to lose."""
        a = service.catalog.resolve("a").dataset
        b = service.catalog.resolve("b").dataset
        # Rebinding an unrelated name bumps the generation, forcing the
        # slow path — which must not guard concrete-dataset requests.
        service._executor = _RebindOnRun(
            service, lambda: service.register("c", _variant(73, space))
        )
        response = service.submit(JoinRequest(a, b, "pbsm"))
        assert response.key in service._results
        assert service.stats().cache_stale_fill_skips == 0


class TestRangeIndexRace:
    def test_stale_index_is_dropped(self, tier, space):
        old = _bound(tier, "a")
        tier._queries._lock = _RebindOnAcquire(
            tier._queries._lock,
            lambda: tier.register("a", _variant(74, space)),
        )
        hits = tier.range_query("a", space)
        # Hits are served as computed (correct at resolve time)...
        fresh = SpatialQueryService()
        expected = fresh.range_query(old, space)
        assert np.array_equal(np.sort(hits), np.sort(expected))
        # ...but the old dataset's freshly built index must not outlive
        # the forget() that raced it.
        assert all(
            key[0] != id(old) for key in tier.query_workspace._cache
        )
        assert tier.stats().stale_index_drops == 1

    def test_alias_keeps_the_index(self, tier, space):
        old = _bound(tier, "a")
        tier.register("alias", old)
        tier._queries._lock = _RebindOnAcquire(
            tier._queries._lock,
            lambda: tier.register("a", _variant(75, space)),
        )
        tier.range_query("a", space)
        assert any(
            key[0] == id(old) for key in tier.query_workspace._cache
        )
        assert tier.stats().stale_index_drops == 0

    def test_concrete_dataset_is_never_guarded(self, tier, space):
        concrete = _variant(76, space, offset=2 * 10**9)
        tier._queries._lock = _RebindOnAcquire(
            tier._queries._lock,
            lambda: tier.register("a", _variant(77, space)),
        )
        tier.range_query(concrete, space)
        assert any(
            key[0] == id(concrete) for key in tier.query_workspace._cache
        )
        assert tier.stats().stale_index_drops == 0


class TestDeltaFillRace:
    def test_patched_fill_after_partner_rebind_is_skipped(
        self, service, space
    ):
        service.submit(JoinRequest("a", "b", "pbsm"))
        old_b = service.catalog.resolve("b").fingerprint
        resolve = service._dataset_by_fingerprint

        def resolve_then_rebind(fingerprint):
            partner = resolve(fingerprint)
            service.register("b", _variant(78, space, offset=10**9))
            return partner

        service._dataset_by_fingerprint = resolve_then_rebind
        victim = service.catalog.resolve("a").dataset
        outcome = service.apply_delta(
            "a", DatasetDelta.deleting(victim.ids[:5], ndim=3)
        )
        # The entry was patched against the partner bound at the time...
        assert outcome.patched == 1
        # ...but that partner is gone, so nothing may be filed under it.
        assert all(
            old_b not in key[:2] for key in service._results._entries
        )
        assert service.stats().cache_stale_fill_skips == 1
        assert not service.submit(JoinRequest("a", "b", "pbsm")).cached


class TestRouterFillRace:
    def test_router_fill_after_rebind_is_skipped(self, space):
        with ShardedQueryService(2, inline=True) as tier:
            tier.register("a", _variant(1, space))
            tier.register("b", _variant(2, space, offset=10**9))
            old = tier._names["a"].fingerprint
            owner = tier._shards[
                tier._ring.owner_of_pair(old, tier._names["b"].fingerprint)
            ]
            send = owner.request_async

            def rebind_then_send(command):
                # The rebind's own invalidation broadcast passes through.
                if isinstance(command, JoinCommand):
                    tier.register("a", _variant(91, space))
                return send(command)

            owner.request_async = rebind_then_send
            response = tier.submit(JoinRequest("a", "b", "pbsm"))
            owner.request_async = send
            # Served as resolved: the join ran on the old content...
            assert response.ok and not response.cached
            # ...but the router keeps nothing for the retired content.
            assert tier._results.entries_for_fingerprint(old) == []
            assert tier.stats().cache_stale_fill_skips == 1


class TestRebindUnderLoadStress:
    def test_no_cached_result_references_an_unbound_fingerprint(self, space):
        """Threaded rebinds against live joins + range queries.

        The invariant both fixes protect, checked at quiescence: every
        fingerprint in every cache key is still bound to some name,
        and the counters balance (requests == hits + misses, no
        failures).
        """
        service = SpatialQueryService(max_cached_results=None)
        variants = [_variant(seed, space) for seed in (11, 12, 13)]
        service.register("a", variants[0])
        service.register("b", _variant(2, space, offset=10**9))
        errors: list[BaseException] = []
        stop = threading.Event()

        def client(idx: int) -> None:
            try:
                for round_ in range(12):
                    service.submit(
                        JoinRequest(
                            "a",
                            "b",
                            "pbsm",
                            parameters={"resolution": 2 + (idx + round_) % 3},
                        )
                    )
                    service.range_query("a", space)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        rebinds = 0
        while not stop.is_set():
            service.register("a", variants[rebinds % len(variants)])
            rebinds += 1
        for thread in threads:
            thread.join()
        assert not errors
        bound = {
            service.catalog.resolve(name).fingerprint
            for name in ("a", "b")
        }
        for key in service._results._entries:
            assert set(key[:2]) <= bound, (
                "cache entry references an unbound fingerprint: "
                f"{key[:2]}"
            )
        stats = service.stats()
        assert stats.requests == stats.cache_hits + stats.cache_misses
        assert stats.failures == 0
        assert stats.requests == 4 * 12
