"""Behavioural tests for the sharded service tier.

Covers the routing substrate (consistent-hash ring, wire payloads),
the router's catalog/cache semantics in deterministic inline mode
(rebind invalidation across shards, alias survival, admission control,
router cache hits, stats merging), and the process-backed deployment
shape: byte-identity against the single-process oracle with the
shared-memory transport on and off, no segment left after ``close()``,
and shard-crash isolation with mid-stream recovery.
"""

import errno
import hashlib
import itertools
import multiprocessing
import os
import pickle
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.service import (
    HashRing,
    ShardedQueryService,
    SpatialQueryService,
    dataset_fingerprint,
)
from repro.engine import RunReport, SpatialWorkspace
from repro.service.sharded import ShardState, _ProcessShard, execute_command
from repro.service.sharding import pair_routing_key
from repro.service.wire import CrashCommand, DatasetPayload, JoinCommand
from repro.storage.shm import SharedDatasetPool, shm_available
from repro.streaming import DatasetDelta
from tests.conftest import spy_on_shards


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


def _owner_of_ab(service):
    """The shard handle that owns joins of ``a`` with ``b``."""
    fp_a, fp_b = (service.catalog.resolve(n).fingerprint for n in "ab")
    return service._shards[service._ring.owner_of_pair(fp_a, fp_b)]


def _cold_bytes(corpus, request):
    """The pairs a fresh single-tier service answers over the corpus."""
    oracle = SpatialQueryService()
    oracle.register("a", corpus["a"])
    oracle.register("b", corpus["b"])
    return _payload_bytes(oracle.submit(request))


def _listed_segments() -> list[str]:
    """Names under /dev/shm (POSIX); empty elsewhere — the leak test
    then degrades to a no-op rather than a false failure."""
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("psm_")]
    except OSError:  # pragma: no cover - non-POSIX
        return []


def _mapped_segments(pid: int) -> set[str]:
    """The ``/dev/shm`` segments process ``pid`` maps, unlinked ones
    included (``/proc`` only)."""
    with open(f"/proc/{pid}/maps") as maps:
        return set(re.findall(r"/dev/shm/(psm_\w+)", maps.read()))


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
        with pytest.raises(ValueError):
            DatasetPayload()
        with pytest.raises(ValueError):
            DatasetPayload(ref=object(), dataset=corpus["a"])
        assert DatasetPayload(dataset=corpus["a"])


def _join_command(a, b, algorithm="pbsm", seq=7):
    return JoinCommand(
        seq=seq,
        a=DatasetPayload(dataset=a),
        b=DatasetPayload(dataset=b),
        algorithm=algorithm,
        space=None,
        parameters=None,
        within=None,
    )


class TestExecuteCommand:
    """One command, one reply: a join's report and the wall of its run,
    or the exception as text."""

    def test_a_join_replies_with_its_report_and_wall(self, corpus):
        reply = execute_command(
            ShardState(), _join_command(corpus["a"], corpus["b"])
        )
        assert reply.ok and reply.seq == 7
        assert reply.error is None and reply.error_type is None
        assert isinstance(reply.payload, RunReport)
        direct = SpatialWorkspace().join(corpus["a"], corpus["b"], "pbsm")
        assert (
            reply.payload.result.pairs.tobytes()
            == direct.result.pairs.tobytes()
        )
        assert reply.wall_seconds > 0.0

    def test_a_raising_join_replies_its_message_then_traceback(
        self, corpus, space
    ):
        clash = uniform_dataset(50, seed=21, name="clash", space=space)
        with pytest.raises(ValueError) as raised:
            SpatialWorkspace().join(corpus["a"], clash, "pbsm")
        shard = ShardState()
        reply = execute_command(shard, _join_command(corpus["a"], clash))
        assert not reply.ok and reply.seq == 7
        assert reply.payload is None and reply.wall_seconds == 0.0
        assert reply.error_type == "ValueError"
        assert reply.error.startswith(f"{raised.value}\nTraceback")
        # The shard keeps serving.
        assert execute_command(
            shard, _join_command(corpus["a"], corpus["b"])
        ).ok

    def test_a_command_it_does_not_run_fails_alone(self):
        reply = execute_command(ShardState(), CrashCommand(seq=3))
        assert not reply.ok and reply.seq == 3
        assert reply.error_type == "TypeError"
        assert reply.error.startswith("unhandled shard command: CrashCommand")

    def test_the_latency_sample_is_the_wall_of_the_run(
        self, corpus, monkeypatch
    ):
        """The ledger's one sample per miss is the shard-side wall of
        ``BatchExecutor.run``: time the shard spends before the run
        (realising the payloads, slowed here) is not in it."""
        from repro.service import sharded

        realise = sharded._realise

        def slow_realise(payload):
            time.sleep(0.25)
            return realise(payload)

        monkeypatch.setattr(sharded, "_realise", slow_realise)
        service = SpatialQueryService()
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        response = service.submit(JoinRequest("a", "b", "pbsm"))
        assert response.ok and response.wall_seconds >= 0.5
        row = service.stats().latency_by_algorithm["PBSM"]
        assert row["count"] == 1
        assert 0.0 < row["p50_s"] < 0.25


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
                inline.catalog.resolve("a").dataset
            ),
            dataset_fingerprint(inline.catalog.resolve("b").dataset),
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
        inline.register("alias", inline.catalog.resolve("a").dataset)
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

    def test_retire_drops_the_routers_range_index(self, inline, space):
        """The router's name map is the tier's only catalog and its
        query workspace the only range index: retiring content no name
        serves drops that content's index — an alias keeps it."""
        workspace = inline.query_workspace
        inline.register("alias", inline.catalog.resolve("a").dataset)
        inline.range_query("a", space)
        assert workspace.cached_index_count == 1
        changed = uniform_dataset(150, seed=93, name="A", space=space)
        inline.register("a", changed)
        assert workspace.cached_index_count == 1  # "alias" serves it
        inline.register("alias", inline.catalog.resolve("a").dataset)
        assert workspace.cached_index_count == 0
        inline.range_query("b", space)
        assert workspace.cached_index_count == 1
        inline.unregister("b")
        assert workspace.cached_index_count == 0
        assert inline.stats().catalog_size == len(inline.names()) == 3

    def test_unknown_name_and_bad_types_raise(self, inline):
        with pytest.raises(KeyError):
            inline.submit(JoinRequest("a", "ghost", "pbsm"))
        with pytest.raises(TypeError):
            inline.submit(JoinRequest("a", 42, "pbsm"))
        with pytest.raises(ValueError):
            inline.register("", inline.catalog.resolve("a").dataset)
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

    def test_plan_prices_names_off_the_stored_sketches(self, inline, corpus):
        """The router's catalog stores a sketch per content, so the
        sharded tier plans registered pairs as the single tier does."""
        oracle = SpatialQueryService()
        for name, dataset in corpus.items():
            oracle.register(name, dataset)
        plan = inline.plan("a", "b")
        expected = oracle.plan("a", "b")
        assert plan.stats_used
        assert (plan.algorithm, plan.est_pairs) == (
            expected.algorithm, expected.est_pairs
        )

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
        )
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        yield service
        service.close()

    def test_known_key_is_a_router_hit_when_saturated(
        self, tight, monkeypatch
    ):
        request = JoinRequest("a", "b", "pbsm")
        fresh = tight.submit(request)
        sent = spy_on_shards(tight, monkeypatch)
        # Occupy every shard's single admission slot: no submission
        # can reach a worker.
        for handle in tight._shards:
            assert handle.gate.acquire(timeout=0.0)
        try:
            hit = tight.submit(request)
            assert sent == [[]] * tight.shards
            began = time.monotonic()
            unknown = tight.submit(JoinRequest("b", "a", "pbsm"))
            waited = time.monotonic() - began
        finally:
            for handle in tight._shards:
                handle.gate.release()
        assert hit.cached and not hit.degraded
        assert _payload_bytes(hit) == _payload_bytes(fresh)
        assert unknown.error_type == "ShardSaturated"
        assert waited < 1.0
        assert sent == [[]] * tight.shards
        stats = tight.stats()
        assert stats.degraded_responses == 0
        assert stats.rejected_requests == 1

    def test_rejects_when_saturated_with_no_stale_answer(self, tight):
        for handle in tight._shards:
            assert handle.gate.acquire(timeout=0.0)
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

    def test_range_query_takes_no_admission_slot(
        self, tight, corpus, space, monkeypatch
    ):
        """With every shard's admission slot held, a range query is still
        answered at once, by the router, and no shard sees it."""
        for handle in tight._shards:
            assert handle.gate.acquire(timeout=0.0)
        sent = spy_on_shards(tight, monkeypatch)
        try:
            with ThreadPoolExecutor(1) as pool:
                hits = pool.submit(tight.range_query, "a", space).result(
                    timeout=5.0
                )
        finally:
            for handle in tight._shards:
                handle.gate.release()
        assert sent == [[]] * tight.shards
        expected = SpatialQueryService().range_query(corpus["a"], space)
        assert hits.tobytes() == expected.tobytes()
        assert tight.stats().rejected_requests == 0

    def test_saturation_is_per_shard(self, tight, corpus):
        """Holding one shard's only slot rejects the misses that shard
        owns; a miss another shard owns still runs."""
        tight.register("c", corpus["c"])
        held = _owner_of_ab(tight)
        fingerprints = {
            name: tight.catalog.resolve(name).fingerprint for name in "abc"
        }
        other = next(
            (x, y)
            for x in "abc"
            for y in "abc"
            if x != y
            and tight._shards[
                tight._ring.owner_of_pair(fingerprints[x], fingerprints[y])
            ] is not held
        )
        assert held.gate.acquire(timeout=0.0)
        try:
            rejected = tight.submit(JoinRequest("a", "b", "pbsm"))
            served = tight.submit(JoinRequest(*other, "pbsm"))
        finally:
            held.gate.release()
        assert rejected.error_type == "ShardSaturated"
        assert served.ok and not served.cached
        assert tight._shards[served.shard] is not held
        assert tight.stats().rejected_requests == 1

    @pytest.mark.parametrize("bound", [0, -1])
    def test_shard_bound_below_one_raises_before_any_spawn(
        self, bound, monkeypatch
    ):
        spawned = []
        real_spawn = _ProcessShard._spawn

        def recording_spawn(shard):
            spawned.append(shard)
            return real_spawn(shard)

        monkeypatch.setattr(_ProcessShard, "_spawn", recording_spawn)
        with pytest.raises(ValueError, match="max_inflight_per_shard"):
            ShardedQueryService(2, max_inflight_per_shard=bound)
        assert not spawned
        assert not [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard")
        ]


class TestRouterRangeQueries:
    def test_range_query_does_not_wait_behind_a_join(
        self, inline, corpus, space, monkeypatch
    ):
        """A join held inside the executor of the shard that owns the
        queried content delays no range query over that content: the
        router answers it, and no shard sees it."""
        fingerprints = {
            name: inline.catalog.resolve(name).fingerprint
            for name in inline.names()
        }
        request, target = next(
            (JoinRequest(a, b, "pbsm"), name)
            for a, b in itertools.permutations(sorted(fingerprints), 2)
            for name in sorted(fingerprints)
            if inline._ring.owner_of_pair(fingerprints[a], fingerprints[b])
            == inline._ring.owner(fingerprints[name])
        )
        owner = inline._shards[inline._ring.owner(fingerprints[target])]
        entered, release = threading.Event(), threading.Event()
        run = owner.state.executor.run

        def held(requests):
            entered.set()
            assert release.wait(10.0)
            return run(requests)

        monkeypatch.setattr(owner.state.executor, "run", held)
        with ThreadPoolExecutor(2) as pool:
            join = pool.submit(inline.submit, request)
            try:
                assert entered.wait(10.0)
                sent = spy_on_shards(inline, monkeypatch)
                hits = pool.submit(inline.range_query, target, space).result(
                    timeout=5.0
                )
            finally:
                release.set()
            assert join.result(timeout=10.0).ok
        assert sent == [[]] * inline.shards
        expected = SpatialQueryService().range_query(corpus[target], space)
        assert hits.tobytes() == expected.tobytes()


class TestRouterCache:
    def test_delta_sends_no_shard_command(
        self, inline, corpus, monkeypatch
    ):
        """A delta patches the router's cache and retires the old
        content router-side: no shard sees a command, and the patched
        key is then answered without any shard."""
        request = JoinRequest("a", "b", "pbsm")
        inline.submit(request)
        sent = spy_on_shards(inline, monkeypatch)
        delta = DatasetDelta.deleting(corpus["a"].ids[:5], ndim=3)
        outcome = inline.apply_delta("a", delta)
        assert outcome.patched == 1 and outcome.fallbacks == 0
        assert sent == [[]] * inline.shards
        hot = inline.submit(request)
        assert sent == [[]] * inline.shards
        assert hot.cached and hot.report.delta_patched
        single = SpatialQueryService()
        single.register("a", delta.apply(corpus["a"]))
        single.register("b", corpus["b"])
        assert _payload_bytes(hot) == _payload_bytes(single.submit(request))


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

    def test_stats_sends_no_command(self, inline, monkeypatch):
        inline.submit(JoinRequest("a", "b", "pbsm"))
        inline.range_query("a", inline.catalog.resolve("a").dataset.boxes.mbb())
        sent = spy_on_shards(inline, monkeypatch)
        stats = inline.stats()
        assert sent == [[]] * inline.shards
        assert (stats.requests, stats.range_requests) == (1, 1)

    def test_failure_is_isolated_and_counted(self, inline, space):
        # Overlapping id spaces are rejected by the shard's workspace:
        # the submission fails, the service keeps serving.
        clash = uniform_dataset(50, seed=21, name="clash", space=space)
        response = inline.submit(JoinRequest("a", clash, "pbsm"))
        assert not response.ok and response.error_type
        assert inline.stats().failures == 1
        assert inline.submit(JoinRequest("a", "b", "pbsm")).ok


class TestCoalescing:
    """A miss whose key is already in flight waits for that miss, on
    both tiers: the single tier is the same router over one in-process
    shard (no admission bound)."""

    @pytest.fixture(params=["sharded", "single"])
    def tier(self, request, corpus):
        service = (
            ShardedQueryService(2, inline=True, max_inflight_per_shard=1)
            if request.param == "sharded"
            else SpatialQueryService()
        )
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        yield service
        service.close()

    @staticmethod
    def _hold(service, request, monkeypatch, *, raising=False):
        """Spy on every shard, and hold the owner's first join command
        until ``release`` is set (then send it, or raise instead)."""
        sent = spy_on_shards(service, monkeypatch)
        handle = service._shards[
            service._ring.owner_of_pair(
                *(
                    dataset_fingerprint(
                        service.catalog.resolve(side).dataset
                        if isinstance(side, str)
                        else side
                    )
                    for side in (request.a, request.b)
                )
            )
        ]
        spy = handle.request_async
        entered, release = threading.Event(), threading.Event()

        def held(command):
            if isinstance(command, JoinCommand):
                entered.set()
                assert release.wait(10.0)
                if raising:
                    raise RuntimeError("shard pipe is gone")
            return spy(command)

        monkeypatch.setattr(handle, "request_async", held)
        return sent, entered, release

    def test_duplicate_in_flight_key_sends_one_command(
        self, tier, monkeypatch
    ):
        request = JoinRequest("a", "b", "pbsm")
        sent, entered, release = self._hold(tier, request, monkeypatch)
        with ThreadPoolExecutor(1) as pool:
            leader = pool.submit(tier.submit, request)
            assert entered.wait(10.0)
            # Attaches: no command, no admission slot (the leader
            # holds the shard's only one), no wait.
            follower = tier.submit_async(request)
            assert not follower.done()
            release.set()
            lead = leader.result(timeout=10.0)
        follow = follower.result(timeout=10.0)
        assert [
            type(command) for commands in sent for command in commands
        ] == [JoinCommand]
        assert not lead.cached and not follow.cached
        assert follow.report is lead.report
        assert pickle.dumps(follow.report) == pickle.dumps(lead.report)
        assert follow.shard == lead.shard
        stats = tier.stats()
        assert (stats.requests, stats.cache_misses, stats.cache_hits) == (
            2, 2, 0,
        )
        assert stats.latency_by_algorithm["PBSM"]["count"] == 1
        # The answer was filed once: the next submission is a hit.
        assert tier.submit(request).cached

    @pytest.mark.parametrize("raising", [False, True], ids=["outcome", "send"])
    def test_followers_of_a_failed_leader_get_its_error(
        self, tier, corpus, space, monkeypatch, raising
    ):
        # Overlapping ids fail the join inside the shard's executor; a
        # send that raises never reaches the shard at all.
        clash = uniform_dataset(50, seed=21, name="clash", space=space)
        request = JoinRequest("a", clash, "pbsm")
        _, entered, release = self._hold(
            tier, request, monkeypatch, raising=raising
        )
        with ThreadPoolExecutor(1) as pool:
            leader = pool.submit(tier.submit, request)
            assert entered.wait(10.0)
            followers = [tier.submit_async(request) for _ in range(2)]
            release.set()
            if raising:
                with pytest.raises(RuntimeError, match="pipe is gone"):
                    leader.result(timeout=10.0)
            else:
                assert leader.result(timeout=10.0).error_type == "ValueError"
        for future in followers:
            response = future.result(timeout=10.0)
            assert not response.ok and not response.cached
            assert response.error_type == (
                "RuntimeError" if raising else "ValueError"
            )
        stats = tier.stats()
        assert stats.failures == stats.cache_misses == stats.requests == 3
        assert stats.cache_size == 0


class TestInlineShardLock:
    """Inline shards take commands from client threads; their state
    lock runs one join at a time, and a retire waits for the join in
    flight (``_InlineShard.drain``)."""

    @staticmethod
    def _hold_runs(shard, monkeypatch):
        """Hold every ``executor.run`` on ``shard`` until ``release``
        is set; ``entered`` counts the runs that got in, and
        ``overlap`` records whether two were ever inside at once."""
        run = shard.state.executor.run
        entered, release = threading.Semaphore(0), threading.Event()
        inside, overlap = [], []

        def held(requests):
            inside.append(True)
            overlap.append(len(inside) > 1)
            entered.release()
            try:
                assert release.wait(10.0)
                return run(requests)
            finally:
                inside.pop()

        monkeypatch.setattr(shard.state.executor, "run", held)
        return entered, release, overlap

    def test_distinct_misses_on_one_shard_never_overlap(
        self, inline, monkeypatch
    ):
        entered, release, overlap = self._hold_runs(
            _owner_of_ab(inline), monkeypatch
        )
        requests = [
            JoinRequest("a", "b", "pbsm", parameters={"resolution": r})
            for r in (2, 3)
        ]
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(inline.submit, r) for r in requests]
            assert entered.acquire(timeout=10.0)
            # The second miss is admitted but must queue on the lock.
            assert not entered.acquire(timeout=0.3)
            release.set()
            responses = [future.result(timeout=10.0) for future in futures]
        assert all(response.ok for response in responses)
        assert overlap == [False, False]

    @pytest.mark.parametrize("tier", ["single", "sharded"])
    def test_rebind_waits_for_the_miss_in_flight(
        self, tier, corpus, space, monkeypatch
    ):
        service = (
            SpatialQueryService()
            if tier == "single"
            else ShardedQueryService(2, inline=True)
        )
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        entered, release, _ = self._hold_runs(
            _owner_of_ab(service), monkeypatch
        )
        fresh = uniform_dataset(150, seed=99, name="A2", space=space)
        with ThreadPoolExecutor(2) as pool:
            join = pool.submit(service.submit, JoinRequest("a", "b", "pbsm"))
            assert entered.acquire(timeout=10.0)
            rebind = pool.submit(service.register, "a", fresh)
            time.sleep(0.3)
            assert not rebind.done()
            release.set()
            assert rebind.result(timeout=10.0).version == 2
            assert join.result(timeout=10.0).ok
        service.close()


class TestSegmentLifetime:
    """A segment lives while a name serves its content or a sent
    command carries it; a retire sends no command."""

    def test_gate_wait_outlives_five_rebinds(self, corpus, space):
        """A miss resolved before five rebinds of its side, then held
        at the admission gate, is sent after every rebind: it carries
        the content it resolved, pickled, never a released segment,
        and its answer is not filed."""
        service = ShardedQueryService(
            2, inline=True, max_inflight_per_shard=1, queue_timeout_s=10
        )
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        request = JoinRequest("a", "b", "pbsm")
        gate = _owner_of_ab(service).gate
        assert gate.acquire(timeout=0.0)
        with ThreadPoolExecutor(1) as pool:
            pending = pool.submit(service.submit, request)
            deadline = time.monotonic() + 10.0
            while not service._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service._inflight  # resolved, waiting at the gate
            for seed in range(5):
                service.register(
                    "a", uniform_dataset(150, seed=40 + seed, space=space)
                )
            gate.release()
            response = pending.result(timeout=20.0)
        stats = service.stats()
        service.close()
        assert _payload_bytes(response) == _cold_bytes(corpus, request)
        assert stats.cache_stale_fill_skips == 1

    def test_a_sent_command_pins_its_segment(
        self, corpus, space, monkeypatch
    ):
        """A rebind while a sent command carries the old segment keeps
        that segment until a later retire finds it unpinned."""
        service = ShardedQueryService(2, inline=True)
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        request = JoinRequest("a", "b", "pbsm")
        handle = _owner_of_ab(service)
        send = handle.request_async
        entered, release = threading.Event(), threading.Event()

        def held(command):
            entered.set()
            assert release.wait(10.0)
            return send(command)

        monkeypatch.setattr(handle, "request_async", held)
        with ThreadPoolExecutor(1) as pool:
            pending = pool.submit(service.submit, request)
            assert entered.wait(10.0)
            service.register(
                "a", uniform_dataset(150, seed=40, name="A2", space=space)
            )
            # b, the new a, and the old a the command carries.
            assert service._pages.active_segments == 3
            release.set()
            response = pending.result(timeout=10.0)
        assert _payload_bytes(response) == _cold_bytes(corpus, request)
        service.unregister("a")
        assert service._pages.active_segments == 1
        service.close()

    def test_process_rebind_and_delta_send_no_command(
        self, corpus, space, monkeypatch
    ):
        service = ShardedQueryService(2)
        try:
            service.register("a", corpus["a"])
            service.register("b", corpus["b"])
            service.submit(JoinRequest("a", "b", "pbsm")).raise_for_failure()
            sent = spy_on_shards(service, monkeypatch)
            service.register(
                "a", uniform_dataset(150, seed=41, name="A2", space=space)
            )
            delta = DatasetDelta.deleting(corpus["b"].ids[:5], ndim=3)
            assert service.apply_delta("b", delta).patched == 0
            service.unregister("a")
            assert sent == [[]] * service.shards
            assert service._pages.active_segments == 1
        finally:
            service.close()

    @pytest.mark.skipif(
        not shm_available() or not os.path.exists("/proc/self/maps"),
        reason="needs shared memory and /proc",
    )
    def test_shards_map_no_more_segments_than_the_pool_holds(
        self, corpus, space
    ):
        """A shard maps a segment only while a command uses it: after
        twenty rebinds of one name, each followed by a miss, no shard
        still maps the retired contents."""
        service = ShardedQueryService(2)
        try:
            service.register("b", corpus["b"])
            for seed in range(20):
                service.register(
                    "a", uniform_dataset(150, seed=60 + seed, space=space)
                )
                _payload_bytes(service.submit(JoinRequest("a", "b", "pbsm")))
            held = service._pages.active_segments
            assert held == 2
            for handle in service._shards:
                assert len(_mapped_segments(handle._process.pid)) <= held
        finally:
            service.close()


# ----------------------------------------------------------------------
# The single tier: the router over one in-process shard
# ----------------------------------------------------------------------
class TestSingleTier:
    def test_publishes_no_segment(self, corpus):
        """Registering, joining and applying a delta leave /dev/shm as
        they found it: the in-process shard takes datasets by
        reference."""
        before = sorted(_listed_segments())
        service = SpatialQueryService()
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        service.submit(JoinRequest("a", "b", "pbsm")).raise_for_failure()
        delta = DatasetDelta.deleting(corpus["a"].ids[:5], ndim=3)
        assert service.apply_delta("a", delta).patched == 1
        assert service.submit(JoinRequest("a", "b", "pbsm")).cached
        assert sorted(_listed_segments()) == before

    def test_distinct_misses_are_never_saturated(self, corpus, monkeypatch):
        """Sixteen threads of distinct misses, each held inside the
        executor past the sharded tier's default queue timeout: every
        one is admitted (the caller's thread runs its own miss), none
        is answered ``ShardSaturated``."""
        from repro.engine.executor import BatchExecutor

        service = SpatialQueryService()
        service.register("a", corpus["a"])
        service.register("b", corpus["b"])
        release = threading.Event()
        run = BatchExecutor.run

        def held(executor, requests):
            assert release.wait(30.0)
            return run(executor, requests)

        monkeypatch.setattr(BatchExecutor, "run", held)
        with ThreadPoolExecutor(16) as pool:
            futures = [
                pool.submit(
                    service.submit,
                    JoinRequest(
                        "a", "b", "pbsm", parameters={"resolution": 2 + i}
                    ),
                )
                for i in range(16)
            ]
            time.sleep(2.5)
            release.set()
            responses = [future.result(timeout=30.0) for future in futures]
        assert [r.error_type for r in responses] == [None] * 16
        stats = service.stats()
        assert stats.cache_misses == 16 and stats.rejected_requests == 0


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
                name: sharded._payloads[
                    sharded.catalog.resolve(name).fingerprint
                ].ref is not None
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
                payload.ref is not None
                for payload in service._payloads.values()
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

    def test_crash_recovery_is_shard_local(self, corpus, space):
        with ShardedQueryService(2, max_inflight_per_shard=16) as service:
            service.register("a", corpus["a"])
            service.register("b", corpus["b"])
            request = JoinRequest("a", "b", "pbsm")
            baseline = service.submit(request)
            victim = baseline.shard
            ranges = {
                name: service.range_query(name, space).tobytes()
                for name in ("a", "b")
            }
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
            # Nothing was replayed: commands carry their datasets, so an
            # uncached join routed to the victim after the crash — which
            # only a respawned worker can answer — is byte-identical.
            after = service.submit(
                JoinRequest("a", "b", "pbsm", parameters={"resolution": 5})
            )
            assert after.ok and not after.cached and after.shard == victim
            assert _payload_bytes(after) == _payload_bytes(baseline)
            for name, hits in ranges.items():
                assert service.range_query(name, space).tobytes() == hits
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
