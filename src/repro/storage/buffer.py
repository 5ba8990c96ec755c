"""LRU buffer pool in front of a simulated disk.

The join algorithms read pages through a buffer pool so that repeated
accesses to a hot page (e.g. an R-tree root, or a space node revisited
during crawling) are not charged as disk I/O every time — exactly as a
real DBMS buffer manager would behave.  Experiments start each phase
with a *cold* pool, matching the paper's cleared-cache protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from repro.geometry.slots import SlotPickleMixin
from repro.storage.disk import SimulatedDisk


class BufferPool(SlotPickleMixin):
    """Fixed-capacity LRU page cache.

    >>> disk = SimulatedDisk()
    >>> pid = disk.allocate("payload")
    >>> pool = BufferPool(disk, capacity=4)
    >>> pool.read(pid)
    'payload'
    >>> pool.read(pid)   # second read is a hit; no disk I/O charged
    'payload'
    >>> pool.hits, pool.misses
    (1, 1)
    """

    __slots__ = ("disk", "capacity", "hits", "misses", "_cache")

    def __init__(self, disk: SimulatedDisk, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.disk = disk
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._cache: OrderedDict[int, object] = OrderedDict()

    def read(self, page_id: int) -> object:
        """Return a page payload, via the cache."""
        if page_id in self._cache:
            self.hits += 1
            self._cache.move_to_end(page_id)
            return self._cache[page_id]
        self.misses += 1
        payload = self.disk.read(page_id)
        self._cache[page_id] = payload
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return payload

    def read_many(self, page_ids: Iterable[int]) -> list[object]:
        """The payloads of ``page_ids``: the loop of :meth:`read` calls."""
        read = self.read
        return [read(page_id) for page_id in page_ids]

    def clear(self) -> None:
        """Drop every cached page (cold restart)."""
        self._cache.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without evicting pages."""
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(capacity={self.capacity}, cached={len(self._cache)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
