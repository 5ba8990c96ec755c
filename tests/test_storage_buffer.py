"""Tests for the LRU buffer pool."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

from tests.conftest import NON_DYADIC


def make(n_pages: int = 8, capacity: int = 4):
    disk = SimulatedDisk()
    pids = [disk.allocate(f"page-{i}") for i in range(n_pages)]
    return disk, pids, BufferPool(disk, capacity)


class TestBasics:
    def test_rejects_zero_capacity(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            BufferPool(disk, 0)

    def test_miss_then_hit(self):
        disk, pids, pool = make()
        assert pool.read(pids[0]) == "page-0"
        assert pool.read(pids[0]) == "page-0"
        assert (pool.hits, pool.misses) == (1, 1)
        assert disk.stats.pages_read == 1  # hit did not touch the disk

    def test_len_tracks_cached(self):
        _, pids, pool = make()
        for pid in pids[:3]:
            pool.read(pid)
        assert len(pool) == 3


class TestEviction:
    def test_lru_eviction_order(self):
        disk, pids, pool = make(capacity=2)
        pool.read(pids[0])
        pool.read(pids[1])
        pool.read(pids[2])  # evicts 0 (least recently used)
        pool.read(pids[1])  # still cached
        assert pool.hits == 1
        pool.read(pids[0])  # must re-read
        assert disk.stats.pages_read == 4

    def test_access_refreshes_recency(self):
        disk, pids, pool = make(capacity=2)
        pool.read(pids[0])
        pool.read(pids[1])
        pool.read(pids[0])  # refresh 0; now 1 is LRU
        pool.read(pids[2])  # evicts 1
        pool.read(pids[0])
        assert pool.hits == 2  # the refresh and the final read


class TestMaintenance:
    def test_clear_forces_cold_reads(self):
        disk, pids, pool = make()
        pool.read(pids[0])
        pool.clear()
        pool.read(pids[0])
        assert disk.stats.pages_read == 2
        assert pool.misses == 2

    def test_reset_counters_keeps_cache(self):
        disk, pids, pool = make()
        pool.read(pids[0])
        pool.reset_counters()
        assert (pool.hits, pool.misses) == (0, 0)
        pool.read(pids[0])
        assert pool.hits == 1  # cache content survived


def observe(pool: BufferPool) -> tuple:
    """Everything a read leaves behind: all six disk counters (floats
    compared with ``==``), the pool's counters and its cache order."""
    return (
        dataclasses.astuple(pool.disk.stats),
        pool.hits,
        pool.misses,
        list(pool._cache),
    )


class TestReadMany:
    """``read_many`` is the loop of ``read`` calls — one LRU policy —
    and the property keeps it so should it ever grow a body of its own."""

    @staticmethod
    def pool(capacity: int) -> BufferPool:
        disk = SimulatedDisk(NON_DYADIC)
        for k in range(24):
            disk.allocate(f"page-{k}")
        disk.release([5, 17])
        return BufferPool(disk, capacity)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        warm=st.lists(st.integers(0, 23).filter(lambda p: p not in (5, 17)), max_size=6),
        # Repeats, backward jumps, read-ahead skips (> 8 apart), released
        # (5, 17) and unallocated (24+) ids all come out of this range.
        page_ids=st.lists(st.integers(0, 26), max_size=40),
    )
    def test_equals_the_loop_of_single_reads(self, capacity, warm, page_ids):
        outcomes = []
        for many in (False, True):
            pool = self.pool(capacity)
            for page_id in warm:
                pool.read(page_id)
            try:
                if many:
                    payloads = pool.read_many(page_ids)
                else:
                    payloads = [pool.read(page_id) for page_id in page_ids]
                error = None
            except KeyError as exc:
                payloads, error = None, str(exc)
            outcomes.append((payloads, error, observe(pool)))
        assert outcomes[0] == outcomes[1]

    def test_an_empty_run_touches_nothing(self):
        pool = self.pool(2)
        assert pool.read_many([]) == []
        assert observe(pool) == observe(self.pool(2))
