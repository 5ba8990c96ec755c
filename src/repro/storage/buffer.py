"""LRU buffer pool in front of a simulated disk.

The join algorithms read pages through a buffer pool so that repeated
accesses to a hot page (e.g. an R-tree root, or a space node revisited
during crawling) are not charged as disk I/O every time — exactly as a
real DBMS buffer manager would behave.  Experiments start each phase
with a *cold* pool, matching the paper's cleared-cache protocol.

A pool has one read body, :meth:`BufferPool.read_many`: it reads a list
of page ids in order and hands back their payloads and what each miss
added to the disk's read cost, so a caller that attributes I/O page by
page (the TRANSFORMERS driver's Figure-14 split) needs no read call per
page.  :meth:`BufferPool.read` is its one-id run.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from typing import Any, TypeVar

from repro.geometry.slots import SlotPickleMixin
from repro.storage.disk import SimulatedDisk

_P = TypeVar("_P")


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
        """Return a page payload, via the cache: the one-id
        :meth:`read_many`."""
        return self.read_many((page_id,))[0][0]

    def read_many(
        self, page_ids: Iterable[int], kind: type[_P] | None = None
    ) -> tuple[list[_P], list[float]]:
        """Read ``page_ids`` in order: ``(payloads, miss_costs)``.

        ``miss_costs[k]`` is what the ``k``-th miss added to the disk's
        ``read_cost`` (its running total after the read minus before),
        in read order.  Hits, misses, the LRU order and every disk
        counter are those of reading the ids one at a time.  Given a
        ``kind``, a payload that is not one raises ``TypeError`` naming
        its page once it is read, before the next id is.

        A hit costs only its LRU step.
        """
        cache, capacity, disk = self._cache, self.capacity, self.disk
        stats = disk.stats
        payloads: list[Any] = []
        costs: list[float] = []
        hits = misses = 0
        try:
            for page_id in page_ids:
                if page_id in cache:
                    hits += 1
                    cache.move_to_end(page_id)
                    payload = cache[page_id]
                else:
                    misses += 1
                    before = stats.read_cost
                    payload = disk.read(page_id)
                    costs.append(stats.read_cost - before)
                    cache[page_id] = payload
                    if len(cache) > capacity:
                        cache.popitem(last=False)
                if kind is not None and not isinstance(payload, kind):
                    raise TypeError(
                        f"page {page_id} holds {type(payload).__name__},"
                        f" not {kind.__name__}"
                    )
                payloads.append(payload)
        finally:
            self.hits += hits
            self.misses += misses
        return payloads, costs

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
