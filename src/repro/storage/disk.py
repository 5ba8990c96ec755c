"""The simulated disk.

The paper's experiments run on a single 10kRPM SAS disk with cold
caches; join costs are dominated by how many pages each algorithm reads
and whether those reads are sequential or random (Section VII-C:
"PBSM ... resulting in almost exclusively random reads during the join
phase").  :class:`SimulatedDisk` reproduces exactly that accounting:

* pages are identified by dense integer ids in allocation order, so
  physically adjacent ids model physically adjacent disk blocks;
* a read of page ``p`` immediately after a read of page ``p - 1`` is
  *sequential*; every other read is *random*;
* a :class:`DiskModel` charges per-page costs.  The default model uses
  a 20:1 random:sequential read ratio — conservative for a 10kRPM disk
  (≈6.9 ms seek+rotational latency vs ≈0.08 ms transfer for an 8 KB
  page would justify ~87:1; 20:1 credits the OS's request reordering,
  on top of the explicit read-ahead window below) — so reported
  speedups for sequential-friendly algorithms are, if anything,
  understated.

All disk-based join algorithms in this repository allocate their
structures through this class, which makes their I/O counters directly
comparable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.geometry.slots import SlotPickleMixin


class _Released:
    """Payload of a released page (the class itself: pickles by name)."""


@dataclass(frozen=True)
class DiskModel:
    """Per-page cost model of the simulated device.

    Costs are in abstract *cost units*; 1.0 unit = one sequential page
    read.  Experiment reports combine these I/O costs with CPU costs
    (per intersection test) into a single simulated time, mirroring the
    paper's wall-clock measurements.
    """

    page_size: int = 8192
    seq_read_cost: float = 1.0
    random_read_cost: float = 20.0
    write_cost: float = 1.0
    #: Forward skips of at most this many pages still count as
    #: sequential: the OS read-ahead has already fetched them (Linux
    #: default read-ahead is 128 KB, i.e. 16 pages of 8 KB — 8 is
    #: conservative).  Backward jumps and larger skips are seeks.
    readahead_window: int = 8

    def __post_init__(self) -> None:
        if self.page_size < 64:
            raise ValueError("page_size must be at least 64 bytes")
        if min(self.seq_read_cost, self.random_read_cost, self.write_cost) < 0:
            raise ValueError("costs must be non-negative")
        if self.readahead_window < 1:
            raise ValueError("readahead_window must be >= 1")


@dataclass
class DiskStats:
    """Mutable I/O counters of one :class:`SimulatedDisk`."""

    pages_read: int = 0
    seq_reads: int = 0
    random_reads: int = 0
    pages_written: int = 0
    read_cost: float = 0.0
    write_cost: float = 0.0

    @property
    def total_cost(self) -> float:
        """Read plus write cost."""
        return self.read_cost + self.write_cost

    def snapshot(self) -> "DiskStats":
        """An independent copy of the current counters."""
        return DiskStats(
            pages_read=self.pages_read,
            seq_reads=self.seq_reads,
            random_reads=self.random_reads,
            pages_written=self.pages_written,
            read_cost=self.read_cost,
            write_cost=self.write_cost,
        )

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Counters accumulated since the ``earlier`` snapshot."""
        return DiskStats(
            pages_read=self.pages_read - earlier.pages_read,
            seq_reads=self.seq_reads - earlier.seq_reads,
            random_reads=self.random_reads - earlier.random_reads,
            pages_written=self.pages_written - earlier.pages_written,
            read_cost=self.read_cost - earlier.read_cost,
            write_cost=self.write_cost - earlier.write_cost,
        )


class SimulatedDisk(SlotPickleMixin):
    """A page store with sequential/random read classification.

    >>> disk = SimulatedDisk()
    >>> p0 = disk.allocate("hello")
    >>> p1 = disk.allocate("world")
    >>> disk.read(p0)
    'hello'
    >>> disk.read(p1)          # follows p0 -> sequential
    'world'
    >>> disk.stats.seq_reads
    1
    """

    __slots__ = ("model", "stats", "_pages", "_last_read")

    def __init__(self, model: DiskModel | None = None) -> None:
        self.model = model or DiskModel()
        self.stats = DiskStats()
        self._pages: list[object] = []
        self._last_read: int | None = None

    # ------------------------------------------------------------------
    # Allocation and writes
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Pages allocated so far."""
        return len(self._pages)

    def allocate(self, payload: object) -> int:
        """Append a new page holding ``payload``; charge one write.

        Page ids are dense and increase in allocation order, so a
        structure written out in one pass occupies a contiguous run of
        pages (and can later be scanned sequentially), while structures
        whose writes interleave — the situation PBSM creates when it
        spills cell buffers — end up physically scattered.
        """
        page_id = len(self._pages)
        self._pages.append(payload)
        self.stats.pages_written += 1
        self.stats.write_cost += self.model.write_cost
        return page_id

    def allocate_many(self, payloads: Iterable[object]) -> range:
        """The loop of :meth:`allocate` calls: the new pages' dense ids.

        The pages are appended in one ``extend``; the write cost is
        still added page by page, so its float sum is the loop's under
        any disk model — also for the pages appended before an
        exception from ``payloads``.
        """
        first = len(self._pages)
        try:
            self._pages.extend(payloads)
        finally:
            added = len(self._pages) - first
            stats, cost = self.stats, self.model.write_cost
            total = stats.write_cost
            for _ in range(added):
                total += cost
            stats.write_cost = total
            stats.pages_written += added
        return range(first, len(self._pages))

    def write(self, page_id: int, payload: object) -> None:
        """Overwrite an existing page; charge one write."""
        self._check_page_id(page_id)
        self._pages[page_id] = payload
        self.stats.pages_written += 1
        self.stats.write_cost += self.model.write_cost

    def release(self, page_ids: Iterable[int]) -> None:
        """Drop the payloads of pages whose structure is gone.

        The ids stay allocated, so adjacency and every cost are
        unchanged; reading or peeking a released page raises
        ``KeyError``.  Releasing a released page is a no-op; an id that
        was never allocated raises before anything is dropped.
        """
        ids = list(page_ids)
        for page_id in ids:
            if not 0 <= page_id < len(self._pages):
                raise KeyError(f"page {page_id} not allocated")
        for page_id in ids:
            self._pages[page_id] = _Released

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> object:
        """Return a page's payload, charging sequential or random cost."""
        self._check_page_id(page_id)
        self.stats.pages_read += 1
        if (
            self._last_read is not None
            and 0 < page_id - self._last_read <= self.model.readahead_window
        ):
            self.stats.seq_reads += 1
            self.stats.read_cost += self.model.seq_read_cost
        else:
            self.stats.random_reads += 1
            self.stats.read_cost += self.model.random_read_cost
        self._last_read = page_id
        return self._pages[page_id]

    def peek(self, page_id: int) -> object:
        """Read a page *without* charging I/O.

        Only harnesses and tests use this (e.g. to verify structures);
        algorithms must go through :meth:`read` or a
        :class:`~repro.storage.buffer.BufferPool`.
        """
        self._check_page_id(page_id)
        return self._pages[page_id]

    # ------------------------------------------------------------------
    # Experiment support
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the counters and forget the head position.

        Called between the index and join phases of an experiment,
        mirroring the paper's "we clear OS caches and disk buffers
        before each experiment".
        """
        self.stats = DiskStats()
        self._last_read = None

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise KeyError(f"page {page_id} not allocated (have {len(self._pages)})")
        if self._pages[page_id] is _Released:
            raise KeyError(f"page {page_id} was released")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedDisk(pages={len(self._pages)}, stats={self.stats})"
