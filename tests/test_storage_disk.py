"""Tests for the simulated disk: allocation, read classification, costs."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.disk import DiskModel, DiskStats, SimulatedDisk

from tests.conftest import NON_DYADIC


class TestDiskModel:
    def test_defaults(self):
        m = DiskModel()
        assert m.page_size == 8192
        assert m.random_read_cost > m.seq_read_cost

    def test_rejects_tiny_page(self):
        with pytest.raises(ValueError):
            DiskModel(page_size=32)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            DiskModel(seq_read_cost=-1)

    def test_rejects_zero_readahead(self):
        with pytest.raises(ValueError):
            DiskModel(readahead_window=0)


class TestAllocationAndWrites:
    def test_allocate_returns_dense_ids(self):
        disk = SimulatedDisk()
        assert [disk.allocate(i) for i in range(5)] == [0, 1, 2, 3, 4]
        assert disk.num_pages == 5

    def test_allocate_charges_write(self):
        disk = SimulatedDisk()
        disk.allocate("x")
        assert disk.stats.pages_written == 1
        assert disk.stats.write_cost == disk.model.write_cost

    def test_write_overwrites(self):
        disk = SimulatedDisk()
        pid = disk.allocate("old")
        disk.write(pid, "new")
        assert disk.peek(pid) == "new"
        assert disk.stats.pages_written == 2

    def test_write_unallocated_raises(self):
        disk = SimulatedDisk()
        with pytest.raises(KeyError):
            disk.write(3, "x")


class TestReadClassification:
    def test_first_read_is_random(self):
        disk = SimulatedDisk()
        pid = disk.allocate("x")
        disk.read(pid)
        assert disk.stats.random_reads == 1
        assert disk.stats.seq_reads == 0

    def test_next_page_is_sequential(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(i) for i in range(3)]
        for pid in pids:
            disk.read(pid)
        assert disk.stats.seq_reads == 2
        assert disk.stats.random_reads == 1

    def test_forward_skip_within_readahead_is_sequential(self):
        disk = SimulatedDisk(DiskModel(readahead_window=4))
        pids = [disk.allocate(i) for i in range(10)]
        disk.read(pids[0])
        disk.read(pids[4])  # skip of 4 <= window
        assert disk.stats.seq_reads == 1

    def test_forward_skip_beyond_readahead_is_random(self):
        disk = SimulatedDisk(DiskModel(readahead_window=4))
        pids = [disk.allocate(i) for i in range(10)]
        disk.read(pids[0])
        disk.read(pids[5])  # skip of 5 > window
        assert disk.stats.random_reads == 2

    def test_backward_jump_is_random(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(i) for i in range(3)]
        disk.read(pids[2])
        disk.read(pids[0])
        assert disk.stats.random_reads == 2

    def test_repeated_same_page_is_random(self):
        disk = SimulatedDisk()
        pid = disk.allocate("x")
        disk.read(pid)
        disk.read(pid)  # distance 0: not a forward skip
        assert disk.stats.random_reads == 2

    def test_costs_accumulate(self):
        model = DiskModel(seq_read_cost=1.0, random_read_cost=20.0)
        disk = SimulatedDisk(model)
        pids = [disk.allocate(i) for i in range(2)]
        disk.read(pids[0])  # random
        disk.read(pids[1])  # sequential
        assert disk.stats.read_cost == 21.0

    def test_read_unallocated_raises(self):
        disk = SimulatedDisk()
        with pytest.raises(KeyError):
            disk.read(0)


class TestRelease:
    def test_released_payload_is_gone_and_its_id_stays_allocated(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(f"p{i}") for i in range(4)]
        writes = disk.stats.snapshot()
        disk.release(pids[1:3])
        assert disk.num_pages == 4
        assert len(disk._pages) == 2  # a released page keeps no entry
        assert disk.stats == writes  # releasing is not I/O
        for pid in pids[1:3]:
            with pytest.raises(KeyError, match="released"):
                disk.read(pid)
            with pytest.raises(KeyError, match="released"):
                disk.peek(pid)
        assert disk.stats.pages_read == 0  # a refused read charges nothing
        assert disk.allocate("next") == 4  # ids are never handed out twice

    def test_adjacency_of_the_surviving_pages_is_unchanged(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(i) for i in range(3)]
        disk.release([pids[1]])
        disk.read(pids[0])
        assert disk.read(pids[2]) == 2  # a skip inside the read-ahead window
        assert disk.stats.seq_reads == 1

    def test_unallocated_id_raises_and_release_survives_pickling(self):
        import pickle

        disk = SimulatedDisk()
        pid = disk.allocate("x")
        with pytest.raises(KeyError):
            disk.release([pid + 1])
        disk.release([pid])
        with pytest.raises(KeyError, match="released"):
            pickle.loads(pickle.dumps(disk)).peek(pid)

    def test_release_is_idempotent_and_all_or_nothing(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(i) for i in range(3)]
        disk.release(pids[:2])
        disk.release(pids[:2])  # overlapping runs release once
        with pytest.raises(KeyError, match="not allocated"):
            disk.release([pids[2], 99])
        assert disk.peek(pids[2]) == 2  # nothing dropped by the bad run


class TestStatsManagement:
    def test_peek_is_free(self):
        disk = SimulatedDisk()
        pid = disk.allocate("x")
        disk.peek(pid)
        assert disk.stats.pages_read == 0

    def test_reset_stats_clears_and_forgets_head(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(i) for i in range(2)]
        disk.read(pids[0])
        disk.reset_stats()
        assert disk.stats.pages_read == 0
        disk.read(pids[1])  # would be sequential if head were remembered
        assert disk.stats.random_reads == 1

    def test_snapshot_is_independent(self):
        disk = SimulatedDisk()
        pid = disk.allocate("x")
        snap = disk.stats.snapshot()
        disk.read(pid)
        assert snap.pages_read == 0
        assert disk.stats.pages_read == 1

    def test_delta(self):
        disk = SimulatedDisk()
        pids = [disk.allocate(i) for i in range(3)]
        disk.read(pids[0])
        snap = disk.stats.snapshot()
        disk.read(pids[1])
        disk.read(pids[2])
        delta = disk.stats.delta(snap)
        assert delta.pages_read == 2
        assert delta.seq_reads == 2

    def test_total_cost(self):
        stats = DiskStats(read_cost=3.0, write_cost=2.0)
        assert stats.total_cost == 5.0


class TestAllocateMany:
    """``allocate_many`` is *defined* as the loop of ``allocate`` calls."""

    @settings(max_examples=100, deadline=None)
    @given(
        before=st.integers(0, 5),
        payloads=st.lists(st.integers(), max_size=40),
        fail_at=st.none() | st.integers(0, 39),
    )
    def test_equals_the_loop_of_single_allocations(self, before, payloads, fail_at):
        def source():
            for k, payload in enumerate(payloads):
                if k == fail_at:
                    raise RuntimeError(f"payload {k} failed")
                yield payload

        outcomes = []
        for many in (False, True):
            disk = SimulatedDisk(NON_DYADIC)
            for k in range(before):
                disk.allocate(("before", k))
            try:
                if many:
                    ids = list(disk.allocate_many(source()))
                else:
                    ids = [disk.allocate(payload) for payload in source()]
                error = None
            except RuntimeError as exc:
                ids, error = None, str(exc)
            outcomes.append(
                (
                    ids,
                    error,
                    dataclasses.astuple(disk.stats),
                    [disk.peek(k) for k in range(disk.num_pages)],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_ids_are_the_dense_run_after_the_pages_already_there(self):
        disk = SimulatedDisk()
        disk.allocate("a")
        assert disk.allocate_many(["b", "c", "d"]) == range(1, 4)
        assert disk.allocate_many([]) == range(4, 4)
        assert [disk.peek(k) for k in range(4)] == ["a", "b", "c", "d"]

    def test_bulk_write_cost_is_the_loop_sum(self):
        """``write_cost = 0.1``: adding it n times is not ``0.1 * n``, so
        only page-by-page additions in the loop's order give its sum."""
        model = DiskModel(write_cost=0.1)
        loop, bulk = SimulatedDisk(model), SimulatedDisk(model)
        for n in (1, 7, 1000):
            ids = [loop.allocate(("p", n, k)) for k in range(n)]
            assert list(bulk.allocate_many(("p", n, k) for k in range(n))) == ids
            assert dataclasses.astuple(bulk.stats) == dataclasses.astuple(loop.stats)
        assert loop.stats.write_cost != 0.1 * loop.stats.pages_written
