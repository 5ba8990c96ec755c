"""Page payloads for spatial data.

A *data page* in this reproduction holds the spatial elements of one
partition (a PBSM cell fragment, an R-tree leaf, or a TRANSFORMERS
space unit).  A structure's pages are *windows* onto the one validated
id / MBB run it was written from, so reading a group of them is a
charge plus one gather (:meth:`ElementPage.gather`), never a
re-assembly, while :func:`element_page_capacity` enforces the same
packing limit a byte-level layout would
(:mod:`repro.storage.records` defines that layout and the tests verify
the two agree).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

import numpy as np

from repro._types import AnyArray, IntArray
from repro.geometry.boxes import BoxArray, checked_offsets
from repro.geometry.slots import SlotPickleMixin
from repro.storage.records import RecordCodec


def element_page_capacity(page_size: int, ndim: int) -> int:
    """Elements that fit on one ``page_size``-byte page (fixed records).

    >>> element_page_capacity(8192, 3)
    146
    """
    return RecordCodec(ndim).capacity(page_size)


class ElementPage(SlotPickleMixin):
    """The payload of one data page: a window onto a run of ids + MBBs.

    ``ElementPage(ids, boxes)`` validates the id/box length match (so a
    corrupted page cannot propagate silently) and is the window over the
    whole run; :meth:`split` hands out narrower windows onto the same
    arrays, :meth:`row_ranges` / :meth:`element_ranges` name rows of
    the run without a window each.  ``ids`` / ``boxes`` are read-only
    views computed on access.  Instances are immutable, and a page
    pickled on its own carries its own rows only.
    """

    __slots__ = ("_ids", "_boxes", "_start", "_stop")

    def __init__(self, ids: AnyArray, boxes: BoxArray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("ids must be a 1-D array")
        if len(ids) != len(boxes):
            raise ValueError(
                f"page holds {len(ids)} ids but {len(boxes)} boxes"
            )
        ids = np.ascontiguousarray(ids)
        ids.setflags(write=False)
        self.__setstate__(dict(_ids=ids, _boxes=boxes, _start=0, _stop=len(ids)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ElementPage instances are immutable")

    def __getstate__(self) -> dict[str, object]:
        return dict(_ids=self.ids, _boxes=self.boxes, _start=0, _stop=len(self))

    @property
    def ids(self) -> IntArray:
        """The window's element ids: a read-only view of the run's."""
        return self._ids[self._start : self._stop]

    @property
    def boxes(self) -> BoxArray:
        """The window's MBBs: read-only views of the run's bounds."""
        run, a, b = self._boxes, self._start, self._stop
        if b - a == len(self._ids):
            return run
        return BoxArray.trusted(run.lo[a:b], run.hi[a:b])

    @staticmethod
    def split(
        ids: AnyArray, boxes: BoxArray, offsets: AnyArray
    ) -> list["ElementPage"]:
        """One page per run ``[offsets[k], offsets[k + 1])`` of the rows.

        The run and the offsets are validated once; the pages are
        windows onto the run.
        """
        run = ElementPage(ids, boxes)
        bounds = checked_offsets(offsets, len(run)).tolist()
        return run._windows(bounds[:-1], bounds[1:])

    def element_ranges(self, rows: IntArray) -> "RowRanges":
        """The window's elements ``rows`` (positions in the window) as
        one-row ranges of its run, without a window object per element."""
        starts = np.asarray(rows, dtype=np.intp) + self._start
        return self, starts, starts + 1

    def _windows(
        self, starts: Sequence[int], stops: Sequence[int]
    ) -> list["ElementPage"]:
        ids, boxes = self._ids, self._boxes
        new, put, pages = object.__new__, object.__setattr__, []
        for start, stop in zip(starts, stops):
            page = new(ElementPage)
            put(page, "_ids", ids)
            put(page, "_boxes", boxes)
            put(page, "_start", start)
            put(page, "_stop", stop)
            pages.append(page)
        return pages

    @staticmethod
    def _stretches(pages: Sequence["ElementPage"]) -> Iterator[tuple[int, int]]:
        """``[first, last)`` of each stretch of consecutive pages that are
        windows onto the same run."""
        first, n = 0, len(pages)
        while first < n:
            run = pages[first]
            last = first + 1
            while last < n:
                page = pages[last]
                if page._ids is not run._ids or page._boxes is not run._boxes:
                    break
                last += 1
            yield first, last
            first = last

    @staticmethod
    def row_ranges(pages: Sequence["ElementPage"]) -> list["RowRanges"]:
        """The rows of ``pages``, in order, as one entry per stretch of
        pages that are windows onto the same run."""
        return [
            (
                pages[first],
                np.array([p._start for p in pages[first:last]], dtype=np.intp),
                np.array([p._stop for p in pages[first:last]], dtype=np.intp),
            )
            for first, last in ElementPage._stretches(pages)
        ]

    @staticmethod
    def gather(pages: Sequence["ElementPage"]) -> tuple[IntArray, BoxArray]:
        """The rows of ``pages``, in order, as one read-only run."""
        return ElementPage.gather_ranges(ElementPage.row_ranges(pages))

    @staticmethod
    def gather_ranges(
        ranges: Sequence["RowRanges"],
    ) -> tuple[IntArray, BoxArray]:
        """The rows of ``ranges``, in order, as one read-only run: one
        ``take`` over the expanded row ranges per stretch of entries that
        share a run; nothing is validated twice."""
        if not ranges:
            raise ValueError("gather needs at least one page")
        if len(ranges) == 1:
            starts, stops = ranges[0][1], ranges[0][2]
        else:
            starts = np.concatenate([entry[1] for entry in ranges])
            stops = np.concatenate([entry[2] for entry in ranges])
        counts = stops - starts
        ends = np.cumsum(counts)
        rows = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
        # Ranges through entry k, to find each stretch's last row.
        edges = list(accumulate(len(entry[1]) for entry in ranges))
        shape = len(rows), ranges[0][0]._boxes.ndim
        ids, lo, hi = np.empty(len(rows), np.int64), np.empty(shape), np.empty(shape)
        b = 0
        for first, last in ElementPage._stretches([entry[0] for entry in ranges]):
            through = edges[last - 1]
            run, a, b = ranges[first][0], b, int(ends[through - 1]) if through else 0
            # Windows lie inside their run, so nothing is ever clipped;
            # the mode only lets ``take`` write into ``out`` unbuffered.
            np.take(run._ids, rows[a:b], out=ids[a:b], mode="clip")
            np.take(run._boxes.lo, rows[a:b], axis=0, out=lo[a:b], mode="clip")
            np.take(run._boxes.hi, rows[a:b], axis=0, out=hi[a:b], mode="clip")
        for taken in (ids, lo, hi):
            taken.setflags(write=False)
        return ids, BoxArray.trusted(lo, hi)

    def __len__(self) -> int:
        return self._stop - self._start

    def to_bytes(self) -> bytes:
        """Serialise with the canonical record codec (used in tests)."""
        return RecordCodec(self.boxes.ndim).encode(self.ids, self.boxes)

    @staticmethod
    def from_bytes(data: bytes, ndim: int) -> "ElementPage":
        """Inverse of :meth:`to_bytes`."""
        ids, boxes = RecordCodec(ndim).decode(data)
        return ElementPage(ids, boxes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ElementPage(n={len(self)}, ndim={self.boxes.ndim})"


#: ``(page, starts, stops)``: rows ``[starts[k], stops[k])`` of the run
#: ``page`` is a window onto, in order.
RowRanges = tuple[ElementPage, IntArray, IntArray]
