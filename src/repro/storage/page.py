"""Page payloads for spatial data.

A *data page* in this reproduction holds the spatial elements of one
partition (a PBSM cell fragment, an R-tree leaf, or a TRANSFORMERS
space unit).  A structure's pages are *windows* onto the one validated
id / MBB run it was written from, so reading a group of them is a
charge plus one gather (:meth:`ElementPage.gather_columns`), never a
re-assembly, while :func:`element_page_capacity` enforces the same
packing limit a byte-level layout would
(:mod:`repro.storage.records` defines that layout and the tests verify
the two agree).

A run's windows are made without a Python step per window: the new
instances come from one ``map`` of ``object.__new__`` and each of the
four slots is filled by one ``map`` of the slot's own setter, which
bypasses the immutability guard the way ``object.__setattr__`` does.
Rows to gather travel as :data:`RowRanges` — flat ``(pages, starts,
stops)`` triples that concatenate and slice like arrays — and
:meth:`ElementPage.gather_columns` takes one ``np.take`` per array and
axis per stretch of ranges on the same run, straight into the ``(d,
n)`` column layout the segmented grid hash join reads.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro._types import AnyArray, FloatArray, IntArray
from repro.geometry.boxes import BoxArray, checked_offsets, frozen
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
    views computed on access; a caller's writeable ``ids`` is copied,
    never frozen (:func:`~repro.geometry.boxes.frozen`).  Instances are
    immutable, and a page pickled on its own carries its own rows only.
    """

    __slots__ = ("_ids", "_boxes", "_start", "_stop")

    def __init__(self, ids: AnyArray, boxes: BoxArray) -> None:
        given = ids
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("ids must be a 1-D array")
        if len(ids) != len(boxes):
            raise ValueError(
                f"page holds {len(ids)} ids but {len(boxes)} boxes"
            )
        ids = frozen(np.ascontiguousarray(ids), given)
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
        return [self] * len(starts), starts, starts + 1

    def _windows(
        self, starts: Sequence[int], stops: Sequence[int]
    ) -> list["ElementPage"]:
        n = len(starts)
        pages = list(map(object.__new__, repeat(ElementPage, n)))
        slots = vars(ElementPage)
        for name, values in (
            ("_ids", repeat(self._ids, n)),
            ("_boxes", repeat(self._boxes, n)),
            ("_start", starts),
            ("_stop", stops),
        ):
            deque(map(slots[name].__set__, pages, values), maxlen=0)
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
    def row_ranges(pages: Sequence["ElementPage"]) -> "RowRanges":
        """The rows of ``pages``, in order, one range per page."""
        n = len(pages)
        return (
            list(pages),
            np.fromiter(map(_START, pages), np.intp, n),
            np.fromiter(map(_STOP, pages), np.intp, n),
        )

    @staticmethod
    def concat_ranges(ranges: Sequence["RowRanges"]) -> "RowRanges":
        """The ranges of ``ranges``' entries, one entry after the other."""
        return (
            [page for entry in ranges for page in entry[0]],
            np.concatenate([entry[1] for entry in ranges]),
            np.concatenate([entry[2] for entry in ranges]),
        )

    @staticmethod
    def gather_columns(
        ranges: Sequence["RowRanges"],
    ) -> tuple[IntArray, FloatArray, FloatArray]:
        """The rows of ``ranges``, in order: their ids and their bounds
        as read-only ``(d, n)`` columns (row ``k`` is axis ``k``), the
        layout the segmented grid hash join reads.  Per stretch of
        ranges that share a run, one ``take`` per array: the bounds'
        takes index the run's flat ``(n, d)`` buffer with a ``(d, m)``
        array of offsets, so they land in column layout without a
        transpose.  (A ``take`` from a strided column would first copy
        the whole column of the run.)  Nothing is validated twice."""
        pages, starts, stops = ElementPage.concat_ranges(ranges)
        if not pages:
            raise ValueError("gather needs at least one page")
        counts = stops - starts
        ends = np.cumsum(counts)
        rows = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
        ends_list = ends.tolist()
        ndim = pages[0]._boxes.ndim
        axes = np.arange(ndim)[:, None]
        parts: list[tuple[IntArray, FloatArray, FloatArray]] = []
        b = 0
        for first, last in ElementPage._stretches(pages):
            run, a, b = pages[first], b, ends_list[last - 1]
            if run._boxes.ndim != ndim:
                raise ValueError("pages of different dimensionality")
            taken = rows[a:b]
            cells = taken * ndim + axes
            parts.append(
                (
                    run._ids.take(taken),
                    run._boxes.lo.ravel().take(cells),
                    run._boxes.hi.ravel().take(cells),
                )
            )
        if len(parts) == 1:
            ids, lo, hi = parts[0]
        else:
            ids, lo, hi = (np.concatenate(part, axis=-1) for part in zip(*parts))
        for gathered in (ids, lo, hi):
            gathered.setflags(write=False)
        return ids, lo, hi

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


#: A window's first row and the row after its last, in its run.
_START, _STOP = attrgetter("_start"), attrgetter("_stop")

#: ``(pages, starts, stops)``: range ``k`` is rows ``[starts[k],
#: stops[k])`` of the run ``pages[k]`` is a window onto, in order.
RowRanges = tuple[list[ElementPage], IntArray, IntArray]
