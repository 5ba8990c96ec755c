"""Behavioural tests for the sharded service tier.

Covers the routing substrate (consistent-hash ring, wire payloads),
the router's catalog/cache semantics in deterministic inline mode
(rebind invalidation across shards, alias survival, admission control,
degradation, quotas, stats merging), and the process-backed deployment
shape: byte-identity against the single-process oracle with the
shared-memory transport on and off, no segment left after ``close()``,
and shard-crash isolation with mid-stream recovery.
"""

import errno
import hashlib
import pickle
import time

import numpy as np
import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.service import (
    HashRing,
    ShardSaturated,
    ShardedQueryService,
    SpatialQueryService,
    dataset_fingerprint,
)
from repro.service.sharded import _ProcessShard
from repro.service.sharding import pair_routing_key
from repro.service.wire import DatasetPayload
from repro.storage.shm import SharedDatasetPool, shm_available


@pytest.fixture(scope="module")
def space():
    return scaled_space(600)


@pytest.fixture(scope="module")
def corpus(space):
    """Three datasets with disjoint id spaces (workspace requirement)."""
    return {
        "a": uniform_dataset(150, seed=21, name="A", space=space),
        "b": uniform_dataset(
            150, seed=22, name="B", id_offset=10**9, space=space
        ),
        "c": uniform_dataset(
            150, seed=23, name="C", id_offset=2 * 10**9, space=space
        ),
    }


def _payload_bytes(response):
    response.raise_for_failure()
    return response.report.result.pairs.tobytes()


def _listed_segments() -> list[str]:
    """Names under /dev/shm (POSIX); empty elsewhere — the leak test
    then degrades to a no-op rather than a false failure."""
    import os

    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]
    except OSError:  # pragma: no cover - non-POSIX
        return []


# ----------------------------------------------------------------------
# Routing substrate
# ----------------------------------------------------------------------
class TestHashRing:
    # Realistic keys: catalog fingerprints are SHA-256 hex digests,
    # which is what gives the ring its uniformity.
    FPS = [
        hashlib.sha256(f"fp-{i}".encode()).hexdigest()
        for i in range(400)
    ]

    def test_ownership_is_deterministic_and_total(self):
        ring = HashRing(4)
        again = HashRing(4)
        owners = [ring.owner(fp) for fp in self.FPS]
        assert owners == [again.owner(fp) for fp in self.FPS]
        assert all(0 <= shard < 4 for shard in owners)
        # With 64 virtual points per shard, 400 keys must reach
        # every shard, and no shard may monopolise the space.
        counts = ring.distribution(self.FPS)
        assert len(counts) == 4 and all(counts)
        assert max(counts) < len(self.FPS) // 2

    def test_growth_moves_a_bounded_fraction_of_keys(self):
        """The consistent-hashing contract: adding one shard relocates
        roughly 1/(n+1) of the keys, never a wholesale reshuffle."""
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            before.owner(fp) != after.owner(fp) for fp in self.FPS
        )
        assert 0 < moved < len(self.FPS) // 2

    def test_pair_routing_is_order_sensitive(self):
        # Cache keys are order-sensitive (a join is not symmetric in
        # its report), so the pair key must be too.
        assert pair_routing_key("aa", "bb") != pair_routing_key("bb", "aa")
        ring = HashRing(3)
        fp_a, fp_b = self.FPS[0], self.FPS[1]
        assert ring.owner_of_pair(fp_a, fp_b) == ring.owner(
            pair_routing_key(fp_a, fp_b)
        )

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert set(ring.distribution(self.FPS)) == {len(self.FPS)}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)


def test_default_shard_count_is_four():
    with ShardedQueryService(inline=True) as service:
        assert service.shards == 4


class TestWirePayload:
    def test_exactly_one_transport_required(self, corpus):
        fp = dataset_fingerprint(corpus["a"])
        with pytest.raises(ValueError):
            DatasetPayload(fingerprint=fp)
        with pytest.raises(ValueError):
            DatasetPayload(
                fingerprint=fp, ref=object(), dataset=corpus["a"]
            )
        assert DatasetPayload(fingerprint=fp, dataset=corpus["a"])


# ----------------------------------------------------------------------
# Router semantics (inline shards: deterministic, in-process)
# ----------------------------------------------------------------------
@pytest.fixture
def inline(corpus):
    service = ShardedQueryService(3, inline=True)
    for name, dataset in corpus.items():
        service.register(name, dataset)
    yield service
    service.close()


class TestInlineCatalog:
    def test_register_resubmit_hit_and_shard_tag(self, inline):
        cold = inline.submit(JoinRequest("a", "b", "pbsm"))
        warm = inline.submit(JoinRequest("a", "b", "pbsm"))
        assert not cold.cached and warm.cached
        assert _payload_bytes(cold) == _payload_bytes(warm)
        assert cold.shard is not None and cold.shard == warm.shard
        assert cold.shard == inline._ring.owner_of_pair(
            dataset_fingerprint(
                inline._names["a"].dataset
            ),
            dataset_fingerprint(inline._names["b"].dataset),
        )

    def test_equal_content_rebind_is_noop(self, inline, corpus, space):
        clone = uniform_dataset(150, seed=21, name="A", space=space)
        entry = inline.register("a", clone)
        assert entry.version == 1
        inline.submit(JoinRequest("a", "b", "pbsm"))
        assert inline.submit(JoinRequest("a", "b", "pbsm")).cached

    def test_rebind_invalidates_exactly_that_content(
        self, inline, space
    ):
        inline.submit(JoinRequest("a", "b", "pbsm"))
        inline.submit(JoinRequest("b", "c", "pbsm"))
        changed = uniform_dataset(150, seed=91, name="A", space=space)
        entry = inline.register("a", changed)
        assert entry.version == 2
        # The rebound pair misses again; the untouched pair still hits.
        assert not inline.submit(JoinRequest("a", "b", "pbsm")).cached
        assert inline.submit(JoinRequest("b", "c", "pbsm")).cached

    def test_alias_keeps_cached_results_alive(self, inline, space):
        inline.register("alias", inline._names["a"].dataset)
        inline.submit(JoinRequest("alias", "b", "pbsm"))
        inline.register("a", uniform_dataset(150, seed=92, name="A", space=space))
        # "a" was rebound, but "alias" still serves the old content —
        # its cache entries must survive the rebind.
        assert inline.submit(JoinRequest("alias", "b", "pbsm")).cached

    def test_unregister_drops_name_and_invalidates(self, inline):
        inline.submit(JoinRequest("a", "c", "pbsm"))
        dropped = inline.unregister("c")
        assert dropped.name == "c" and "c" not in inline
        with pytest.raises(KeyError, match="registered: a, b"):
            inline.submit(JoinRequest("a", "c", "pbsm"))

    def test_unknown_name_and_bad_types_raise(self, inline):
        with pytest.raises(KeyError):
            inline.submit(JoinRequest("a", "ghost", "pbsm"))
        with pytest.raises(TypeError):
            inline.submit(JoinRequest("a", 42, "pbsm"))
        with pytest.raises(ValueError):
            inline.register("", inline._names["a"].dataset)
        with pytest.raises(TypeError):
            inline.register("x", "not a dataset")

    def test_concrete_datasets_share_cache_with_names(
        self, inline, corpus
    ):
        cold = inline.submit(
            JoinRequest(corpus["a"], corpus["b"], "pbsm")
        )
        warm = inline.submit(JoinRequest("a", "b", "pbsm"))
        assert not cold.cached and warm.cached
        assert cold.shard == warm.shard

    def test_range_query_matches_single_process(
        self, inline, corpus, space
    ):
        oracle = SpatialQueryService()
        expected = oracle.range_query(corpus["a"], space)
        hits = inline.range_query("a", space)
        assert np.array_equal(np.sort(hits), np.sort(expected))

    def test_closed_service_refuses(self, corpus):
        service = ShardedQueryService(2, inline=True)
        service.register("a", corpus["a"])
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(JoinRequest("a", "a", "pbsm"))
        service.close()  # idempotent


class TestAdmissionControl:
    @pytest.fixture
    def tight(self, corpus):
        service = ShardedQueryService(
            2,
            inline=True,
            max_inflight_per_shard=1,
            queue_timeout_s=0.05,
            max_inflight_per_client=1,
        )
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        yield service
        service.close()

    def test_degrades_to_stale_answer_when_saturated(self, tight):
        request = JoinRequest("a", "b", "pbsm")
        fresh = tight.submit(request)
        # Occupy every shard's single admission slot: the next
        # submission cannot reach a worker.
        for handle in tight._shards:
            assert handle.gate.try_acquire(0.0)
        try:
            degraded = tight.submit(request)
        finally:
            for handle in tight._shards:
                handle.gate.release()
        assert degraded.degraded and degraded.cached
        assert _payload_bytes(degraded) == _payload_bytes(fresh)
        stats = tight.stats()
        assert stats.degraded_responses == 1
        assert stats.rejected_requests == 0

    def test_rejects_when_saturated_with_no_stale_answer(self, tight):
        for handle in tight._shards:
            assert handle.gate.try_acquire(0.0)
        try:
            response = tight.submit(JoinRequest("a", "b", "pbsm"))
        finally:
            for handle in tight._shards:
                handle.gate.release()
        assert not response.ok
        assert response.error_type == "ShardSaturated"
        assert tight.stats().rejected_requests == 1
        # The slot freed up: the same request now executes.
        assert tight.submit(JoinRequest("a", "b", "pbsm")).ok

    def test_range_query_raises_rather_than_degrade(self, tight, space):
        tight.range_query("a", space)
        for handle in tight._shards:
            assert handle.gate.try_acquire(0.0)
        try:
            with pytest.raises(ShardSaturated):
                tight.range_query("a", space)
        finally:
            for handle in tight._shards:
                handle.gate.release()

    def test_client_quota_is_per_client(self, tight, space):
        # Quota is 1 in-flight per client; a synchronous submit is
        # back to 0 when it returns, so sequential traffic passes...
        assert tight.submit(JoinRequest("a", "b", "pbsm"), client="c1").ok
        # ...and an occupied slot rejects only that client.
        with tight._lock:
            tight._clients["c2"] = 1
        rejected = tight.submit(JoinRequest("a", "b", "pbsm"), client="c2")
        assert rejected.error_type == "ClientQuotaExceeded"
        assert tight.submit(JoinRequest("a", "b", "pbsm"), client="c3").ok
        with pytest.raises(RuntimeError, match="quota"):
            tight.range_query("a", space, client="c2")
        with tight._lock:
            del tight._clients["c2"]
        # Both quota rejections count, the range query's included.
        assert tight.stats().rejected_requests == 2

    def test_untagged_submissions_bypass_quota(self, tight):
        with tight._lock:
            tight._clients["c9"] = 1
        assert tight.submit(JoinRequest("a", "b", "pbsm")).ok


class TestStatsMerging:
    def test_counters_add_across_shards(self, inline):
        for pair in (("a", "b"), ("a", "c"), ("b", "c")):
            inline.submit(JoinRequest(*pair, "pbsm"))
            inline.submit(JoinRequest(*pair, "pbsm"))
        stats = inline.stats()
        assert stats.requests == 6
        assert stats.cache_hits == 3 and stats.cache_misses == 3
        assert stats.requests == stats.cache_hits + stats.cache_misses
        assert stats.failures == 0
        assert stats.catalog_size == 3
        assert len(stats.per_shard) == inline.shards
        assert sum(
            row["requests"] for row in stats.per_shard
        ) == stats.requests
        merged = stats.latency_by_algorithm
        assert merged and all(
            record["count"] > 0 for record in merged.values()
        )

    def test_failure_is_isolated_and_counted(self, inline, space):
        # Overlapping id spaces are rejected by the shard's workspace:
        # the submission fails, the service keeps serving.
        clash = uniform_dataset(50, seed=21, name="clash", space=space)
        response = inline.submit(JoinRequest("a", clash, "pbsm"))
        assert not response.ok and response.error_type
        assert inline.stats().failures == 1
        assert inline.submit(JoinRequest("a", "b", "pbsm")).ok


# ----------------------------------------------------------------------
# Process mode: the deployment shape
# ----------------------------------------------------------------------
class TestProcessShards:
    @pytest.mark.parametrize("shm", [True, False], ids=["shm", "pickle"])
    def test_byte_identity_against_single_process_oracle(
        self, corpus, space, shm, monkeypatch
    ):
        """Answers are byte-identical whether registered datasets reach
        the shards through shared memory or pickled (a platform without
        shared memory, faked by patching ``shm_available``)."""
        expect_shm = shm and shm_available()
        if not shm:
            monkeypatch.setattr(
                "repro.storage.shm.shm_available", lambda: False
            )
        oracle = SpatialQueryService()
        for name, dataset in corpus.items():
            oracle.register(name, dataset)
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        with ShardedQueryService(2) as sharded:
            for name, dataset in corpus.items():
                sharded.register(name, dataset)
            transports = {
                name: sharded._names[name].payload.ref is not None
                for name in corpus
            }
            assert set(transports.values()) == {expect_shm}
            for algorithm in ("pbsm", "transformers"):
                for pair in pairs:
                    request = JoinRequest(*pair, algorithm)
                    expected = oracle.submit(request)
                    actual = sharded.submit(request)
                    assert (
                        actual.report.pairs_found
                        == expected.report.pairs_found
                    )
                    assert _payload_bytes(actual) == _payload_bytes(
                        expected
                    )
            hits = sharded.range_query("a", space)
            assert np.array_equal(
                np.sort(hits), np.sort(oracle.range_query("a", space))
            )

    @pytest.mark.skipif(
        not shm_available(), reason="platform has no shared memory"
    )
    def test_no_segment_left_after_close(self, corpus):
        before = set(_listed_segments())
        with ShardedQueryService(2) as service:
            for name, dataset in corpus.items():
                service.register(name, dataset)
            service.register("a", corpus["c"])  # rebind retires a ref
            _payload_bytes(service.submit(JoinRequest("a", "b", "pbsm")))
            # The shm path really ran.
            assert all(
                binding.payload.ref is not None
                for binding in service._names.values()
            )
            published = set(_listed_segments()) - before
            assert published
        assert not set(_listed_segments()) & published

    def test_failed_spawn_stops_the_started_shards(self, monkeypatch):
        """A shard that cannot start (fork hit EAGAIN) must not leave the
        shards started before it running: the constructor closes them and
        the publication pool, then re-raises."""
        started = []
        pools_closed = []
        real_spawn = _ProcessShard._spawn
        real_close = SharedDatasetPool.close

        def spawn_once(shard):
            if started:
                raise OSError(errno.EAGAIN, "fork refused")
            started.append(shard)
            return real_spawn(shard)

        def recording_close(pool):
            pools_closed.append(pool)
            real_close(pool)

        monkeypatch.setattr(_ProcessShard, "_spawn", spawn_once)
        monkeypatch.setattr(SharedDatasetPool, "close", recording_close)
        with pytest.raises(OSError, match="fork refused"):
            ShardedQueryService(2)
        (first,) = started
        assert first._process.exitcode is not None  # joined
        assert not first._receiver.is_alive()
        assert len(pools_closed) == 1

    def test_crash_recovery_is_shard_local(self, corpus):
        with ShardedQueryService(2, max_inflight_per_shard=16) as service:
            service.register("a", corpus["a"])
            service.register("b", corpus["b"])
            request = JoinRequest("a", "b", "pbsm")
            baseline = service.submit(request)
            victim = baseline.shard
            # Crash the owner mid-batch: in-flight commands are
            # resent to the respawned worker exactly once.
            futures = [
                service.submit_async(
                    JoinRequest(
                        "a", "b", "pbsm",
                        parameters={"resolution": 2 + i},
                    )
                )
                for i in range(3)
            ]
            service.inject_crash(victim)
            responses = [future.result() for future in futures]
            assert all(r.ok for r in responses)
            # Registrations were replayed: post-crash traffic works
            # and is still byte-identical.
            after = service.submit(request)
            assert after.ok
            assert _payload_bytes(after) == _payload_bytes(baseline)
            respawns = service.shard_respawns()
            assert respawns[victim] >= 1
            assert all(
                count == 0
                for shard, count in enumerate(respawns)
                if shard != victim
            )

    def test_service_survives_repeated_crashes(self, corpus):
        # inject_crash is fire-and-forget (a crash command lost with
        # the pipe it killed is not resent), so wait out each respawn
        # before injecting the next.
        with ShardedQueryService(1, max_inflight_per_shard=16) as service:
            service.register("a", corpus["a"])
            service.register("b", corpus["b"])
            for round_ in range(1, 3):
                service.inject_crash(0)
                deadline = time.monotonic() + 10.0
                while (
                    service.shard_respawns()[0] < round_
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                response = service.submit(JoinRequest("a", "b", "pbsm"))
                assert response.ok
            assert service.shard_respawns()[0] >= 2

    def test_pickle_roundtrip_of_responses(self, corpus):
        """Reports cross a process boundary: must pickle faithfully."""
        with ShardedQueryService(2) as service:
            service.register("a", corpus["a"])
            service.register("b", corpus["b"])
            response = service.submit(JoinRequest("a", "b", "pbsm"))
            clone = pickle.loads(pickle.dumps(response.report))
            assert (
                clone.result.pairs.tobytes()
                == response.report.result.pairs.tobytes()
            )
