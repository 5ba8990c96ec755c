"""Page payloads for spatial data.

A *data page* in this reproduction holds the spatial elements of one
partition (a PBSM cell fragment, an R-tree leaf, or a TRANSFORMERS
space unit).  The payload keeps element ids and MBBs in numpy form for
fast in-memory joins, while :func:`element_page_capacity` enforces the
same packing limit a byte-level layout would
(:mod:`repro.storage.records` defines that layout and the tests verify
the two agree).
"""

from __future__ import annotations

import numpy as np

from repro._types import AnyArray, IntArray
from repro.geometry.boxes import BoxArray
from repro.geometry.slots import SlotPickleMixin
from repro.storage.records import RecordCodec


def element_page_capacity(page_size: int, ndim: int) -> int:
    """Elements that fit on one ``page_size``-byte page (fixed records).

    >>> element_page_capacity(8192, 3)
    146
    """
    return RecordCodec(ndim).capacity(page_size)


class ElementPage(SlotPickleMixin):
    """The payload of one data page: ids plus their MBBs.

    Instances are immutable; building one validates the id/box length
    match so a corrupted page cannot propagate silently.
    """

    __slots__ = ("ids", "boxes")

    ids: IntArray
    boxes: BoxArray

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
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "boxes", boxes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ElementPage instances are immutable")

    @staticmethod
    def split(
        ids: AnyArray, boxes: BoxArray, offsets: AnyArray
    ) -> list["ElementPage"]:
        """One page per run ``[offsets[k], offsets[k + 1])`` of the rows.

        The run is validated once, as one page; the pages are read-only
        views of it.
        """
        run_ids = ElementPage(ids, boxes).ids
        new, put = object.__new__, object.__setattr__
        bounds = np.asarray(offsets).tolist()
        pages = []
        for a, b, part in zip(bounds, bounds[1:], boxes.split(offsets)):
            page = new(ElementPage)
            put(page, "ids", run_ids[a:b])
            put(page, "boxes", part)
            pages.append(page)
        return pages

    def __len__(self) -> int:
        return len(self.ids)

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
