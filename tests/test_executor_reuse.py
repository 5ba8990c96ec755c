"""A long-lived workspace answers like a cold one, and stays bounded.

A :class:`~repro.engine.executor.BatchExecutor` (and so every service
shard) keeps one :class:`~repro.engine.workspace.SpatialWorkspace` for
its lifetime, so a join may run on indexes an earlier join built.
These tests pin what that may change and what it may not:

* pairs and every counter of the join's work (tests, descriptor
  comparisons, pages read, transformations) equal a cold join's; the
  page reads are the cold join's reads, index run by index run, so the
  sequential/random split can differ only on a read that crosses from
  one index's page run to another's (the runs sit elsewhere on disk);
* the workspace holds the pages of its cached indexes and nothing else
  (PBSM's pair-level grid dies with its join), so after any number of
  misses a shard's page table is bounded by its cache bound;
* no cache entry keeps a view of a command's dataset, so an attached
  shared-memory segment is unmapped when the command is done with it.
"""

import gc
import sys
import threading

import pytest

from repro import JoinRequest, SpatialQueryService, SpatialWorkspace
from repro.datagen import (
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.engine import BatchExecutor
from repro.engine.executor import EXECUTOR_CACHED_INDEXES
from repro.storage import shm
from repro.storage.disk import SimulatedDisk

from tests.conftest import dataset_pair, live_pages

#: The join-phase counters a warm join must share with a cold one.
_EQUAL_COUNTERS = (
    "pairs_found",
    "intersection_tests",
    "metadata_comparisons",
    "pages_read",
)
#: TRANSFORMERS' transformation counters (absent for other algorithms).
_TRANSFORMATIONS = ("role_switches", "splits_to_unit", "splits_to_element")


def _catalog(n: int) -> list:
    """Four contents with disjoint id spaces in one space."""
    space = scaled_space(2 * n)
    generators = (uniform_dataset, dense_cluster, uniform_cluster, massive_cluster)
    return [
        gen(n, seed=40 + i, name=f"D{i}", id_offset=i * 10**9, space=space)
        for i, gen in enumerate(generators)
    ]


class _Reads:
    """Every disk read, with the index run it falls in.

    ``SimulatedDisk.read`` is spied on to log ``(stats object, page id,
    sequential?)``; ``SpatialWorkspace._cache_trim``, which every join
    calls once it is done with its handles, is spied on to snapshot the
    page run of each cached index at that moment.
    """

    def __init__(self, monkeypatch):
        self.reads = []
        self.runs = {}
        read, trim = SimulatedDisk.read, SpatialWorkspace._cache_trim

        def spy_read(disk, page_id):
            before = disk.stats.seq_reads
            payload = read(disk, page_id)
            self.reads.append(
                (disk.stats, int(page_id), disk.stats.seq_reads != before)
            )
            return payload

        def spy_trim(ws):
            self.runs = {key: entry.pages for key, entry in ws._cache.items()}
            trim(ws)

        monkeypatch.setattr(SimulatedDisk, "read", spy_read)
        monkeypatch.setattr(SpatialWorkspace, "_cache_trim", spy_trim)

    def join(self, ws, a, b, algorithm, within):
        """Run one join; returns its report and its join-phase reads as
        ``(run, offset in the run, sequential?)``.  A page no cached
        index holds belongs to the join's own, uncached builds."""
        first, start = ws.disk.num_pages, len(self.reads)
        report = ws.join(a, b, algorithm, within=within)
        reads = []
        for stats, page_id, sequential in self.reads[start:]:
            if stats is not ws.disk.stats:
                continue  # an index build's read, before the join phase
            owner = next(
                (key for key, run in self.runs.items() if page_id in run),
                None,
            )
            offset = page_id - (first if owner is None else self.runs[owner].start)
            reads.append((owner, offset, sequential))
        return report, reads


class TestWarmJoinsMatchColdJoins:
    def test_sweep_over_ordered_pairs_algorithms_and_within(self, monkeypatch):
        """Every ordered pair of four contents, five algorithms, with and
        without ``within``, on one executor against fresh workspaces."""
        log = _Reads(monkeypatch)
        catalog = _catalog(300)
        warm_ws = BatchExecutor().workspace
        joins = reused = crossing_flips = 0
        for a in catalog:
            for b in catalog:
                if a is b:
                    continue
                for algorithm in ("transformers", "auto", "rtree", "gipsy", "pbsm"):
                    for within in (None, 0.4):
                        warm, warm_reads = log.join(warm_ws, a, b, algorithm, within)
                        cold, cold_reads = log.join(
                            SpatialWorkspace(), a, b, algorithm, within
                        )
                        joins += 1
                        reused += warm.reused_a or warm.reused_b
                        assert warm.result.pairs.tobytes() == cold.result.pairs.tobytes()
                        ws_stats, cs = warm.join_stats, cold.join_stats
                        for name in _EQUAL_COUNTERS:
                            assert getattr(ws_stats, name) == getattr(cs, name), name
                        for name in _TRANSFORMATIONS:
                            assert ws_stats.extras.get(name) == cs.extras.get(name), name
                        # The same pages of the same runs, in the same order.
                        assert [r[:2] for r in warm_reads] == [r[:2] for r in cold_reads]
                        for k, (w, c) in enumerate(zip(warm_reads, cold_reads)):
                            if w[2] != c[2]:
                                assert k > 0 and w[0] != warm_reads[k - 1][0]
                                crossing_flips += 1
        assert joins == 120
        assert reused >= joins * 3 // 4  # every join but PBSM reuses a side
        # Flips are rare: most joins see the cold split exactly.
        assert crossing_flips < joins // 4

    def test_an_older_partner_index_leaves_every_counter_cold(self):
        """B's index is built before A's (with C's in between, so the
        runs are not adjacent): the join reads each index's directory as
        its own run, A's first, exactly as a cold join does."""
        space = scaled_space(2_000)
        a = massive_cluster(1_000, seed=5, name="A", space=space)
        b = uniform_dataset(1_000, seed=6, name="B", id_offset=10**9, space=space)
        c = uniform_dataset(
            1_000, seed=7, name="C", id_offset=2 * 10**9, space=space
        )
        for within in (None, 0.4):
            ws = SpatialWorkspace()
            ws.join(b, c, "transformers")
            warm = ws.join(a, b, "transformers", within=within)
            cold = SpatialWorkspace().join(a, b, "transformers", within=within)
            assert warm.reused_b and not warm.reused_a
            for stats in (warm.join_stats, cold.join_stats):
                stats.wall_seconds = 0.0
            assert warm.join_stats == cold.join_stats


class TestBoundedMemory:
    def test_pbsm_joins_hold_no_pages_after_they_end(self):
        """PBSM's grid is cached nowhere: k joins on one workspace hold
        the live pages of none of them (each held only its own)."""
        a, b = dataset_pair("uniform", 1_000, 1_000, seed=9)
        ws = SpatialWorkspace()
        first = ws.join(a, b, "pbsm")
        built = ws.disk.num_pages
        assert built > 0
        for k in range(2, 6):
            again = ws.join(a, b, "pbsm")
            assert again.result.pairs.tobytes() == first.result.pairs.tobytes()
            assert ws.disk.num_pages == k * built
            assert live_pages(ws.disk) == 0
            assert len(ws.disk._pages) == 0

    def test_a_failing_pbsm_join_releases_its_grid(self, monkeypatch):
        from repro.joins import PBSMJoin

        a, b = dataset_pair("uniform", 300, 300, seed=10)
        ws = SpatialWorkspace()
        ws.join(a, b, "transformers")
        cached = len(ws.disk._pages)

        def boom(self, index_a, index_b):
            raise RuntimeError("synthetic join failure")

        monkeypatch.setattr(PBSMJoin, "join", boom)
        with pytest.raises(RuntimeError, match="synthetic"):
            ws.join(a, b, "pbsm")
        assert len(ws.disk._pages) == live_pages(ws.disk) == cached

    def test_a_shard_stays_bounded_over_200_unique_misses(self):
        """Unique ``within`` values make every miss enlarge, sketch and
        index a new content; the shard's workspace keeps only what its
        LRU bound allows, and its page table only their pages."""
        catalog = _catalog(150)
        service = SpatialQueryService()
        for dataset in catalog:
            service.register(dataset.name, dataset)
        ws = service._shards[0].state.executor.workspace
        pairs = [(a, b) for a in catalog for b in catalog if a is not b]
        algorithms = ("transformers", "pbsm", "auto", "rtree", "gipsy")
        for k in range(200):
            a, b = pairs[k % len(pairs)]
            response = service.submit(
                JoinRequest(a.name, b.name, algorithms[k % 5], within=0.25 + k / 1000)
            )
            assert response.ok and not response.cached
        assert service.stats().cache_misses == 200
        assert ws.cached_index_count <= EXECUTOR_CACHED_INDEXES
        assert ws.cached_sketch_count <= EXECUTOR_CACHED_INDEXES
        assert len(ws._enlarged) <= EXECUTOR_CACHED_INDEXES
        held = sum(len(entry.pages) for entry in ws._cache.values())
        assert len(ws.disk._pages) == live_pages(ws.disk) == held
        assert ws.disk.num_pages > 4 * held  # most pages were released


class TestConcurrentMisses:
    def test_threads_missing_on_one_shard_get_cold_answers(self):
        """Eight client threads share the one inline shard, and so its
        executor's workspace (under the shard's lock, one caller at a
        time); with a tiny switch interval every answer still equals a
        fresh workspace's and the page table holds only cached pages."""
        catalog = _catalog(150)
        service = SpatialQueryService()
        for dataset in catalog:
            service.register(dataset.name, dataset)
        pairs = [(a, b) for a in catalog for b in catalog if a is not b]
        answers, errors = {}, []

        def client(c: int) -> None:
            try:
                for k in range(6):
                    a, b = pairs[(c + 3 * k) % len(pairs)]
                    algorithm = ("transformers", "rtree", "pbsm")[(c + k) % 3]
                    within = 0.3 + (c * 6 + k) / 1000
                    response = service.submit(
                        JoinRequest(a.name, b.name, algorithm, within=within)
                    )
                    answers[(a.name, b.name, algorithm, within)] = response
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(c,)) for c in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(answers) == 48
        datasets = {d.name: d for d in catalog}
        for (a, b, algorithm, within), response in answers.items():
            cold = SpatialWorkspace().join(
                datasets[a], datasets[b], algorithm, within=within
            )
            assert response.report.result.pairs.tobytes() == cold.result.pairs.tobytes()
            assert response.report.intersection_tests == cold.intersection_tests
        ws = service._shards[0].state.executor.workspace
        held = sum(len(entry.pages) for entry in ws._cache.values())
        assert len(ws.disk._pages) == live_pages(ws.disk) == held


class TestNoSegmentPinned:
    @pytest.mark.skipif(not shm.shm_available(), reason="no shared memory")
    def test_an_attached_dataset_is_unmapped_after_its_commands(self):
        """The executor caches indexes, sketches and enlarged copies of
        attached datasets; none of them keeps a view of the segment."""
        a, b = dataset_pair("clustered", 300, 300, seed=11)
        executor = BatchExecutor()
        with shm.SharedDatasetPool() as pool:
            ref_a, ref_b = pool.publish(a), pool.publish(b)
            attached_a, attached_b = shm.attach_dataset(ref_a), shm.attach_dataset(ref_b)
            reports = [
                executor.run(
                    JoinRequest(attached_a, attached_b, algorithm, within=within)
                )
                for algorithm in ("auto", "transformers", "rtree", "gipsy", "pbsm")
                for within in (None, 0.5)
            ]
            assert executor.workspace.cached_index_count > 0
            assert executor.workspace.cached_sketch_count > 0
            del attached_a, attached_b, reports
            gc.collect()
            assert ref_a.segment not in shm._ATTACHED
            assert ref_b.segment not in shm._ATTACHED
