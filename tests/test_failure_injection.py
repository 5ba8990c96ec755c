"""Failure injection: corrupted storage must fail loudly, not silently.

A join that silently skips a corrupt page would return a *plausible but
wrong* result set — the worst possible failure mode for a filter step
feeding scientific analysis.  Every algorithm is required to raise on a
page whose payload is not what its index says it should be.

The sharded tier adds process-level failure modes on top: a shard
worker killed mid-batch (commands in flight must be retried on the
respawned worker, without disturbing the other shards), and a shard
saturated past its admission bound (the router answers keys its cache
holds and rejects the rest — never hangs, never answers wrongly).
"""

import time

import pytest

from repro.core import TransformersJoin
from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.joins import (
    GipsyJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)
from repro.service import ShardedQueryService, SpatialQueryService
from repro.streaming import DatasetDelta

from tests.conftest import dataset_pair, make_disk, spy_on_shards


def corrupt_every_element_page(disk):
    """Replace every ElementPage payload with junk."""
    from repro.storage.page import ElementPage

    for pid in range(disk.num_pages):
        if isinstance(disk.peek(pid), ElementPage):
            disk.write(pid, ("junk", pid))


class TestCorruptDataPages:
    def test_transformers_raises(self):
        a, b = dataset_pair("uniform", 300, 300, seed=1)
        disk = make_disk()
        algo = TransformersJoin()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        corrupt_every_element_page(disk)
        with pytest.raises(TypeError):
            algo.join(ia, ib)

    def test_transformers_names_the_junk_page_and_stops_there(self, page_reads):
        """The buffer pool tests each payload as it is read, so neither
        the join nor a range query (which reads its sorted candidate run
        with one ``read_many``) reads or charges anything after the junk
        page."""
        from repro.core.query import range_query
        from repro.storage.buffer import BufferPool

        a, b = dataset_pair("uniform", 300, 300, seed=1)
        disk = make_disk()
        algo = TransformersJoin()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        junk = int(ia.units.element_page_ids[3])
        disk.write(junk, ("junk", junk))
        message = f"page {junk} holds tuple, not ElementPage"
        with pytest.raises(TypeError, match=message):
            algo.join(ia, ib)
        assert page_reads[-1][1] == junk
        page_reads.clear()
        with pytest.raises(TypeError, match=message):
            range_query(ia, ia.space, BufferPool(disk))
        run = sorted(ia.units.element_page_ids.tolist())
        stop = run.index(junk) + 1
        assert [page_id for _, page_id in page_reads[-stop:]] == run[:stop]

    def test_pbsm_raises(self):
        a, b = dataset_pair("uniform", 300, 300, seed=2)
        space = a.boxes.mbb().union(b.boxes.mbb())
        algo = PBSMJoin(space=space, resolution=3)
        disk = make_disk()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        corrupt_every_element_page(disk)
        with pytest.raises(TypeError):
            algo.join(ia, ib)

    def test_sync_rtree_raises(self):
        a, b = dataset_pair("uniform", 300, 300, seed=3)
        algo = SynchronizedRTreeJoin()
        disk = make_disk()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        corrupt_every_element_page(disk)
        with pytest.raises(TypeError):
            algo.join(ia, ib)

    def test_gipsy_raises(self):
        a, b = dataset_pair("uniform", 300, 300, seed=4)
        algo = GipsyJoin()
        disk = make_disk()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        corrupt_every_element_page(disk)
        with pytest.raises(TypeError):
            algo.join(ia, ib)


class TestCorruptIndexStructures:
    def test_bplustree_detects_non_leaf(self):
        from repro.index.bplustree import BPlusTree
        from repro.storage.buffer import BufferPool

        disk = make_disk()
        tree = BPlusTree.bulk_load(disk, [(i, i) for i in range(100)])
        disk.write(tree.first_leaf, "junk")
        with pytest.raises(TypeError):
            tree.items(BufferPool(disk, 64))

    def test_rtree_detects_foreign_page(self):
        import numpy as np
        from repro.geometry.boxes import BoxArray
        from repro.index.rtree import RTree
        from repro.storage.buffer import BufferPool

        disk = make_disk()
        lo = np.random.default_rng(0).uniform(0, 10, size=(50, 3))
        tree = RTree.bulk_load(disk, np.arange(50), BoxArray(lo, lo + 1))
        disk.write(tree.root_page, 12345)
        with pytest.raises(TypeError):
            tree.read_node(BufferPool(disk, 8), tree.root_page)


@pytest.fixture(scope="module")
def shard_corpus():
    space = scaled_space(500)
    return space, {
        name: uniform_dataset(
            120,
            seed=400 + i,
            name=name.upper(),
            id_offset=i * 10**9,
            space=space,
        )
        for i, name in enumerate(("a", "b", "c"))
    }


class TestShardWorkerCrash:
    def test_mid_batch_crash_retries_only_on_the_dead_shard(
        self, shard_corpus
    ):
        """Kill one worker with a batch in flight across both shards.

        Every request of the batch must still complete with a correct
        report (the dead shard's in-flight commands are resent to the
        respawned worker), and the surviving shard must show zero
        respawns — a crash is strictly shard-local.
        """
        _, corpus = shard_corpus
        oracle = SpatialQueryService()
        for name, dataset in corpus.items():
            oracle.register(name, dataset)
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        requests = [JoinRequest(*pair, "pbsm") for pair in pairs]
        expected = {
            pair: oracle.submit(request).report.result.pairs.tobytes()
            for pair, request in zip(pairs, requests)
        }
        with ShardedQueryService(
            2, max_inflight_per_shard=16
        ) as service:
            for name, dataset in corpus.items():
                service.register(name, dataset)
            victim = service.submit(requests[0]).shard
            futures = [
                service.submit_async(request) for request in requests
            ]
            service.inject_crash(victim)
            responses = [future.result() for future in futures]
            for pair, response in zip(pairs, responses):
                response.raise_for_failure()
                assert (
                    response.report.result.pairs.tobytes()
                    == expected[pair]
                )
            # The worker drains serially: batch replies may all land
            # before the crash command is even executed, so the
            # respawn completes asynchronously — wait it out.
            deadline = time.monotonic() + 10.0
            while (
                service.shard_respawns()[victim] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            respawns = service.shard_respawns()
            assert respawns[victim] >= 1
            assert all(
                count == 0
                for shard, count in enumerate(respawns)
                if shard != victim
            )
            # Nothing was replayed: commands carry their datasets, so
            # post-crash traffic still answers byte-identically.
            after = service.submit(requests[0]).raise_for_failure()
            assert (
                after.report.result.pairs.tobytes()
                == expected[pairs[0]]
            )


    def test_command_sent_while_the_shard_is_between_workers_is_not_lost(
        self, shard_corpus
    ):
        """A submission landing after the worker died but before its
        replacement is up used to vanish: sent to the dead pipe, yet
        missing from the respawn's resend set.  Interpose on the exact
        window (the respawn's wait for the dead process)."""
        _, corpus = shard_corpus
        request = JoinRequest("a", "b", "pbsm")
        with ShardedQueryService(2) as service:
            for name, dataset in corpus.items():
                service.register(name, dataset)
            victim = service.submit(request).shard
            handle = service._shards[victim]
            late = []
            reap = handle._process.join

            def reap_then_submit(timeout=None):
                reap(timeout)
                late.append(service.submit_async(request))

            handle._process.join = reap_then_submit
            service.inject_crash(victim)
            deadline = time.monotonic() + 10.0
            while not late and time.monotonic() < deadline:
                time.sleep(0.01)
            assert late, "the respawn never ran"
            assert late[0].result(timeout=10.0).ok


    def test_respawn_leaves_the_counters_where_they_were(self, shard_corpus):
        """The router keeps every counter, so a shard's death loses
        none: ``stats()`` reads the same before and after a respawn."""
        space, corpus = shard_corpus
        with ShardedQueryService(2) as service:
            for name, dataset in corpus.items():
                service.register(name, dataset)
            for pair in (("a", "b"), ("a", "c"), ("b", "c")):
                service.submit(JoinRequest(*pair, "pbsm")).raise_for_failure()
            for name in corpus:
                service.range_query(name, space)
            victim = service.submit(JoinRequest("a", "b", "pbsm")).shard
            before = service.stats()
            service.inject_crash(victim)
            deadline = time.monotonic() + 10.0
            while (
                service.shard_respawns()[victim] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.shard_respawns()[victim] == 1
            after = service.stats()
            counted = ("requests", "cache_misses", "range_requests")
            assert [getattr(after, name) for name in counted] == [
                getattr(before, name) for name in counted
            ] == [4, 3, 3]


class TestShardSaturation:
    def test_saturated_shard_answers_known_keys_then_recovers(
        self, shard_corpus, monkeypatch
    ):
        """Admission full: known keys are router hits, never a hang.

        Inline shards make saturation deterministic: occupying every
        admission slot by hand models workers that stopped draining.
        """
        _, corpus = shard_corpus
        with ShardedQueryService(
            2,
            inline=True,
            max_inflight_per_shard=1,
            queue_timeout_s=0.05,
        ) as service:
            for name, dataset in corpus.items():
                service.register(name, dataset)
            request = JoinRequest("a", "b", "pbsm")
            fresh = service.submit(request).raise_for_failure()
            sent = spy_on_shards(service, monkeypatch)
            for handle in service._shards:
                assert handle.gate.acquire(timeout=0.0)
            try:
                hit = service.submit(request)
                # A key never answered before has no cached answer:
                # bounded-time rejection, not a hang.
                began = time.monotonic()
                rejected = service.submit(JoinRequest("a", "c", "pbsm"))
                waited = time.monotonic() - began
            finally:
                for handle in service._shards:
                    handle.gate.release()
            assert hit.cached and not hit.degraded
            assert (
                hit.report.result.pairs.tobytes()
                == fresh.report.result.pairs.tobytes()
            )
            assert sent == [[]] * service.shards
            assert rejected.error_type == "ShardSaturated"
            assert waited < 1.0
            # Slots freed: the rejected request now executes for real.
            recovered = service.submit(JoinRequest("a", "c", "pbsm"))
            assert recovered.ok and not recovered.cached
            assert sum(map(len, sent)) == 1
            stats = service.stats()
            assert stats.degraded_responses == 0
            assert stats.rejected_requests == 1


class TestDeltaPatchFailure:
    def test_failed_patch_leaves_the_tier_untouched(
        self, shard_corpus, monkeypatch
    ):
        """What can still fail before a delta re-binds is the patch
        itself.  A ``delta_join`` that raises fails the delta before
        anything is published or bound: names, versions, segments and
        cached answers stay as they were."""
        _, corpus = shard_corpus
        with ShardedQueryService(2, inline=True) as service:
            for name in ("a", "b"):
                service.register(name, corpus[name])
            service.register("a", corpus["c"])
            before = service.submit(JoinRequest("a", "b", "pbsm"))
            entries = {
                name: service.catalog.resolve(name) for name in ("a", "b")
            }
            segments = service._pages.active_segments

            def refuse(*args, **kwargs):
                raise RuntimeError("patch refused")

            monkeypatch.setattr("repro.service.patch.delta_join", refuse)
            shrink = DatasetDelta.deleting(corpus["c"].ids[:3], ndim=3)
            with pytest.raises(RuntimeError, match="refused"):
                service.apply_delta("a", shrink)
            assert service.names() == ("a", "b")
            for name, entry in entries.items():
                now = service.catalog.resolve(name)
                assert (now.fingerprint, now.version) == (
                    entry.fingerprint,
                    entry.version,
                )
            assert service._pages.active_segments == segments
            after = service.submit(JoinRequest("a", "b", "pbsm"))
            assert after.cached
            assert (
                after.report.result.pairs.tobytes()
                == before.report.result.pairs.tobytes()
            )
