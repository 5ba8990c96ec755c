"""Failure injection: corrupted storage must fail loudly, not silently.

A join that silently skips a corrupt page would return a *plausible but
wrong* result set — the worst possible failure mode for a filter step
feeding scientific analysis.  Every algorithm is required to raise on a
page whose payload is not what its index says it should be.

The sharded tier adds process-level failure modes on top: a shard
worker killed mid-batch (commands in flight must be retried on the
respawned worker, without disturbing the other shards), and a shard
saturated past its admission bound (the router must degrade to its
stale snapshot, or reject — never hang, never answer wrongly).
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

from tests.conftest import dataset_pair, make_disk


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
        """The join tests each payload as it is read, so nothing is read
        (or charged) after the junk page; a range query reads its sorted
        candidate run with one ``read_many`` and tests it afterwards."""
        from repro.core.query import range_query
        from repro.storage.buffer import BufferPool

        a, b = dataset_pair("uniform", 300, 300, seed=1)
        disk = make_disk()
        algo = TransformersJoin()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        junk = int(ia.units.element_page_ids[3])
        disk.write(junk, ("junk", junk))
        with pytest.raises(TypeError, match=f"page {junk} is not an element page"):
            algo.join(ia, ib)
        assert page_reads[-1][1] == junk
        page_reads.clear()
        with pytest.raises(TypeError, match=f"page {junk} is not an element page"):
            range_query(ia, ia.space, BufferPool(disk))
        run = sorted(ia.units.element_page_ids.tolist())
        assert [page_id for _, page_id in page_reads[-len(run):]] == run

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
            # Registrations were replayed: post-crash traffic still
            # answers byte-identically.
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


class TestShardSaturation:
    def test_saturated_shard_degrades_then_recovers(self, shard_corpus):
        """Admission full: serve the stale snapshot, never hang.

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
            for handle in service._shards:
                assert handle.gate.try_acquire(0.0)
            try:
                degraded = service.submit(request)
                # A key never answered before has nothing to degrade
                # to: bounded-time rejection, not a hang.
                rejected = service.submit(JoinRequest("a", "c", "pbsm"))
            finally:
                for handle in service._shards:
                    handle.gate.release()
            assert degraded.degraded
            assert (
                degraded.report.result.pairs.tobytes()
                == fresh.report.result.pairs.tobytes()
            )
            assert rejected.error_type == "ShardSaturated"
            # Slots freed: both requests now execute for real.
            assert not service.submit(
                JoinRequest("a", "c", "pbsm")
            ).degraded
            stats = service.stats()
            assert stats.degraded_responses == 1
            assert stats.rejected_requests == 1


class TestShardRefusesRegistration:
    def test_failed_register_releases_its_published_segment(
        self, shard_corpus, monkeypatch
    ):
        """The router publishes to shared memory *before* the owner
        shard acknowledges; a refused registration must give that
        segment reference back, or every failure leaks one."""
        _, corpus = shard_corpus
        with ShardedQueryService(2, inline=True) as service:
            service.register("a", corpus["a"])
            if not service._pages.enabled:
                pytest.skip("shared memory unavailable: nothing to leak")
            assert service._pages.active_segments == 1

            def refuse(name, dataset):
                raise RuntimeError("shard refuses registrations")

            for handle in service._shards:
                monkeypatch.setattr(handle.service, "register", refuse)
            for name in ("b", "c"):
                with pytest.raises(RuntimeError, match="refuses"):
                    service.register(name, corpus[name])
            shrink = DatasetDelta.deleting(corpus["a"].ids[:3], ndim=3)
            with pytest.raises(RuntimeError, match="refuses"):
                service.apply_delta("a", shrink)
            assert service.names() == ("a",)
            assert service._pages.active_segments == 1
