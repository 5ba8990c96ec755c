"""Rebind-race pins: the cache fills and index builds that in-flight
invalidation must suppress.

Both tiers are one router, so every race runs on both: the single tier
(one in-process shard) and the sharded tier (inline shards).  Races of
the shape *resolve under the lock, compute outside it, publish under
the lock again*:

1. **Join fill after rebind** — the router resolved a name to a
   fingerprint, released the lock to send the miss to its owner shard,
   and a ``register`` rebind (or ``unregister``) retired that
   fingerprint mid-flight.  Filling the result cache anyway would keep
   an answer no name serves: a slot leak the invalidation counters
   never see, and a wrong *hit* if the same content is ever
   re-registered.  The one guard, ``DatasetCatalog.names_bound_to``,
   re-validates the name-resolved fingerprints when the reply lands and
   skips the fill, counted in ``cache_stale_fill_skips``.

2. **Range index build after forget()** — ``range_query`` resolved a
   name, released the lock to build/probe the index, and a rebind's
   ``forget()`` ran before the build finished: the freshly built index
   of the *old* dataset landed in the workspace cache after the purge,
   pinned until LRU pressure.  The fix drops it post-hoc, counted in
   ``stale_index_drops``.

3. **Partner rebind during a delta** — ``apply_delta`` patches cached
   entries against the partner content bound at that moment.  It holds
   the catalog-mutation lock from start to finish, so a partner rebind
   started meanwhile waits for the delta, then retires the partner and
   with it the patched entry.

The deterministic tests below interpose on the exact window (the
owner shard's ``request_async``, the query workspace's lock, the
delta's cache read) to force the interleaving every run; the threaded
stress test closes with the global invariant the fixes protect: no
cached result may reference an unbound fingerprint.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

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
    """The dataset ``name`` is bound to."""
    return tier.catalog.resolve(name).dataset


def _rebind_on_join(tier, monkeypatch, rebind):
    """Run ``rebind`` when the router sends its next join command, in
    the window a concurrent ``register`` would hit: after resolve,
    before fill.  The rebind's retire sends no shard command, so the
    join is the only command that triggers it."""
    for handle in tier._shards:
        send = handle.request_async

        def rebind_then_send(command, send=send):
            if isinstance(command, JoinCommand):
                rebind()
            return send(command)

        monkeypatch.setattr(handle, "request_async", rebind_then_send)


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
    def test_fill_after_rebind_is_skipped(self, tier, space, monkeypatch):
        old_fp = tier.catalog.resolve("a").fingerprint
        _rebind_on_join(
            tier, monkeypatch, lambda: tier.register("a", _variant(71, space))
        )
        response = tier.submit(JoinRequest("a", "b", "pbsm"))
        monkeypatch.undo()
        # The response itself is served: it was correct at resolve time.
        assert response.report is not None and response.error is None
        assert not response.cached
        # But the fill was suppressed — no key of the cache references
        # the unbound fingerprint, and a resubmission misses.
        assert tier._results.entries_for_fingerprint(old_fp) == []
        assert response.key not in tier._results
        assert tier.stats().cache_stale_fill_skips == 1
        assert not tier.submit(JoinRequest("a", "b", "pbsm")).cached

    def test_fill_survives_when_alias_still_serves_content(
        self, tier, space, monkeypatch
    ):
        """An alias keeps the content bound, so the fill must land."""
        tier.register("alias", _bound(tier, "a"))
        _rebind_on_join(
            tier, monkeypatch, lambda: tier.register("a", _variant(72, space))
        )
        response = tier.submit(JoinRequest("a", "b", "pbsm"))
        monkeypatch.undo()
        assert response.key in tier._results
        assert tier.stats().cache_stale_fill_skips == 0
        assert tier.submit(JoinRequest("alias", "b", "pbsm")).cached

    def test_fill_after_unregister_is_skipped(self, tier, monkeypatch):
        _rebind_on_join(tier, monkeypatch, lambda: tier.unregister("a"))
        response = tier.submit(JoinRequest("a", "b", "pbsm"))
        monkeypatch.undo()
        assert response.report is not None
        assert response.key not in tier._results
        assert tier.stats().cache_stale_fill_skips == 1

    def test_concrete_sides_always_fill(self, tier, space, monkeypatch):
        """Caller-managed datasets have no catalog binding to lose."""
        a, b = _bound(tier, "a"), _bound(tier, "b")
        _rebind_on_join(
            tier, monkeypatch, lambda: tier.register("a", _variant(73, space))
        )
        response = tier.submit(JoinRequest(a, b, "pbsm"))
        monkeypatch.undo()
        assert response.key in tier._results
        assert tier.stats().cache_stale_fill_skips == 0


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
            key[0] != old.fingerprint for key in tier.query_workspace._cache
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
            key[0] == old.fingerprint for key in tier.query_workspace._cache
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
            key[0] == concrete.fingerprint for key in tier.query_workspace._cache
        )
        assert tier.stats().stale_index_drops == 0


class TestDeltaFillRace:
    def test_partner_rebind_waits_for_the_delta_then_invalidates(
        self, tier, space, monkeypatch
    ):
        """A rebind of the partner, started while a delta patches the
        partner's cached entry, waits for the delta to file the patched
        report, then retires the partner and the patched entry with it."""
        request = JoinRequest("a", "b", "pbsm")
        tier.submit(request)
        old_b = tier.catalog.resolve("b").fingerprint
        entered, release = threading.Event(), threading.Event()
        read = tier._cached_entries

        def held(fingerprint):
            entered.set()
            assert release.wait(10.0)
            return read(fingerprint)

        monkeypatch.setattr(tier, "_cached_entries", held)
        victim = _bound(tier, "a")
        delta = DatasetDelta.deleting(victim.ids[:5], ndim=3)
        with ThreadPoolExecutor(2) as pool:
            outcome = pool.submit(tier.apply_delta, "a", delta)
            assert entered.wait(10.0)
            rebind = pool.submit(
                tier.register, "b", _variant(78, space, offset=10**9)
            )
            # The rebind waits on the delta's catalog-mutation lock.
            with pytest.raises(FutureTimeout):
                rebind.result(timeout=0.2)
            release.set()
            # The entry was patched against the partner bound at the time...
            assert outcome.result(timeout=10.0).patched == 1
            assert rebind.result(timeout=10.0).version == 2
        # ...and the rebind that followed retired it with that partner.
        assert tier._results.entries_for_fingerprint(old_b) == []
        stats = tier.stats()
        assert stats.cache_stale_fill_skips == 0
        assert stats.delta_patches == 1
        hot = tier.submit(request)
        assert not hot.cached
        cold = SpatialQueryService()
        cold.register("a", delta.apply(victim))
        cold.register("b", _bound(tier, "b"))
        assert (
            hot.report.result.pairs.tobytes()
            == cold.submit(request).report.result.pairs.tobytes()
        )


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
