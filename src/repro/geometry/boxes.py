"""Vectorised collections of axis-aligned boxes.

Joins in this repository move *sets* of boxes around: a disk page holds
the boxes of one space unit, PBSM cells hold the boxes assigned to one
grid cell, and the in-memory joins compare two such sets.  Doing that
box-by-box in Python would drown the experiments in interpreter
overhead, so :class:`BoxArray` keeps the bounds in two ``(n, d)`` numpy
arrays and offers bulk predicates.

The numpy representation is an implementation detail of this
reproduction; the algorithms themselves perform exactly the operations
the paper describes (the intersection-test counters are incremented by
the number of *logical* pairwise tests an element-at-a-time
implementation would perform).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.slots import SlotPickleMixin
from repro.vectorize import (
    all_columns,
    boxes_overlap,
    column_max,
    column_min,
    column_product,
)


def checked_offsets(offsets: np.ndarray | Sequence[int], n: int) -> np.ndarray:
    """``offsets`` as an index array, ascending within ``[0, n]``."""
    cuts = np.asarray(offsets, dtype=np.intp)
    if cuts.ndim != 1 or cuts.size == 0:
        raise ValueError("offsets must be a non-empty 1-D sequence")
    if cuts[0] < 0 or cuts[-1] > n or np.any(np.diff(cuts) < 0):
        raise ValueError(f"offsets must ascend within [0, {n}]")
    return cuts


class BoxArray(SlotPickleMixin):
    """An immutable array of ``n`` axis-aligned boxes in ``d`` dimensions.

    ``lo`` and ``hi`` are ``float64`` arrays of shape ``(n, d)`` with
    ``lo <= hi`` everywhere.  Instances behave like a read-only sequence
    of :class:`Box`.

    >>> ba = BoxArray.from_boxes([Box((0, 0), (1, 1)), Box((2, 2), (3, 3))])
    >>> len(ba)
    2
    >>> ba.intersects_box(Box((0.5, 0.5), (2.5, 2.5))).tolist()
    [True, True]
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != 2 or hi.ndim != 2:
            raise ValueError("lo and hi must be 2-D arrays of shape (n, d)")
        if lo.shape != hi.shape:
            raise ValueError(f"shape mismatch: {lo.shape} vs {hi.shape}")
        if lo.shape[1] < 1:
            raise ValueError("boxes must have at least one dimension")
        if np.any(lo > hi):
            raise ValueError("lo must not exceed hi on any axis")
        lo = np.ascontiguousarray(lo)
        hi = np.ascontiguousarray(hi)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BoxArray instances are immutable")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_boxes(boxes: Iterable[Box]) -> "BoxArray":
        """Build an array from an iterable of :class:`Box`."""
        boxes = list(boxes)
        if not boxes:
            raise ValueError(
                "cannot build a BoxArray from zero boxes; "
                "use BoxArray.empty(ndim) instead"
            )
        ndim = boxes[0].ndim
        lo = np.empty((len(boxes), ndim))
        hi = np.empty((len(boxes), ndim))
        for i, box in enumerate(boxes):
            if box.ndim != ndim:
                raise ValueError("mixed dimensionalities in from_boxes")
            lo[i] = box.lo
            hi[i] = box.hi
        return BoxArray(lo, hi)

    @staticmethod
    def empty(ndim: int) -> "BoxArray":
        """An array of zero boxes in ``ndim`` dimensions."""
        return BoxArray(np.empty((0, ndim)), np.empty((0, ndim)))

    @staticmethod
    def concatenate(arrays: Sequence["BoxArray"]) -> "BoxArray":
        """Stack several arrays (of equal dimensionality) into one."""
        los, his = [], []
        for a in arrays:
            lo = a.lo
            if lo.shape[0]:
                los.append(lo)
                his.append(a.hi)
        if not los:
            raise ValueError("concatenate needs at least one non-empty array")
        if len({lo.shape[1] for lo in los}) != 1:
            raise ValueError("mixed dimensionalities in concatenate")
        return BoxArray(np.concatenate(los), np.concatenate(his))

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.lo.shape[0]

    @property
    def ndim(self) -> int:
        """Dimensionality of each box (not of the numpy arrays)."""
        return self.lo.shape[1]

    def box(self, i: int) -> Box:
        """The ``i``-th box as a scalar :class:`Box`."""
        return Box(tuple(self.lo[i]), tuple(self.hi[i]))

    def __iter__(self) -> Iterator[Box]:
        for i in range(len(self)):
            yield self.box(i)

    def take(self, indices: np.ndarray | Sequence[int]) -> "BoxArray":
        """A new array holding the boxes at ``indices`` (in that order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return BoxArray(self.lo[idx], self.hi[idx])

    @staticmethod
    def trusted(lo: np.ndarray, hi: np.ndarray) -> "BoxArray":
        """Wrap read-only bounds whose rows another array validated."""
        part = object.__new__(BoxArray)
        object.__setattr__(part, "lo", lo)
        object.__setattr__(part, "hi", hi)
        return part

    def split(self, offsets: np.ndarray | Sequence[int]) -> list["BoxArray"]:
        """The runs ``[offsets[k], offsets[k + 1])`` as read-only views.

        The rows were validated when this array was built; only the
        offsets are checked, once for all parts.
        """
        bounds = checked_offsets(offsets, len(self)).tolist()
        lo, hi = self.lo, self.hi
        return [
            BoxArray.trusted(lo[a:b], hi[a:b]) for a, b in zip(bounds, bounds[1:])
        ]

    # ------------------------------------------------------------------
    # Bulk geometry
    # ------------------------------------------------------------------
    def centers(self) -> np.ndarray:
        """``(n, d)`` array of box centres."""
        return (self.lo + self.hi) / 2.0

    def volumes(self) -> np.ndarray:
        """``(n,)`` array of box volumes."""
        return column_product(self.hi - self.lo)

    def extents(self) -> np.ndarray:
        """``(n, d)`` array of per-axis side lengths."""
        return self.hi - self.lo

    def mbb(self) -> Box:
        """Minimum bounding box of the whole collection."""
        if len(self) == 0:
            raise ValueError("empty BoxArray has no MBB")
        return Box(tuple(column_min(self.lo)), tuple(column_max(self.hi)))

    def intersects_box(self, box: Box) -> np.ndarray:
        """Boolean mask: which boxes intersect the query ``box``."""
        if box.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        q_lo = np.asarray(box.lo)
        q_hi = np.asarray(box.hi)
        return boxes_overlap(self.lo, self.hi, q_lo, q_hi)

    def contained_in_box(self, box: Box) -> np.ndarray:
        """Boolean mask: which boxes lie entirely inside ``box``."""
        if box.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        q_lo = np.asarray(box.lo)
        q_hi = np.asarray(box.hi)
        return all_columns((self.lo >= q_lo) & (self.hi <= q_hi))

    def min_distance_to_box(self, box: Box) -> np.ndarray:
        """``(n,)`` Euclidean distances from each box to the query box."""
        if box.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        q_lo = np.asarray(box.lo)
        q_hi = np.asarray(box.hi)
        below = np.maximum(q_lo - self.hi, 0.0)
        above = np.maximum(self.lo - q_hi, 0.0)
        gap = np.maximum(below, above)
        return np.sqrt(np.sum(gap * gap, axis=1))

    def pairwise_intersections(
        self, other: "BoxArray", chunk: int = 4096
    ) -> np.ndarray:
        """All intersecting index pairs between ``self`` and ``other``.

        Returns an ``(m, 2)`` integer array of ``(i, j)`` pairs with
        ``self[i]`` intersecting ``other[j]``.  Work is chunked to keep
        the broadcast matrices bounded in memory.

        This is the nested-loop primitive that the in-memory joins wrap
        with pruning structures; it is also the correctness oracle for
        the whole repository.
        """
        if other.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        if len(self) == 0 or len(other) == 0:
            return np.empty((0, 2), dtype=np.intp)
        pairs: list[np.ndarray] = []
        for start in range(0, len(self), chunk):
            stop = min(start + chunk, len(self))
            hit = boxes_overlap(
                self.lo[start:stop, None, :],
                self.hi[start:stop, None, :],
                other.lo[None, :, :],
                other.hi[None, :, :],
            )
            ii, jj = np.nonzero(hit)
            if ii.size:
                pairs.append(np.column_stack((ii + start, jj)))
        if not pairs:
            return np.empty((0, 2), dtype=np.intp)
        return np.concatenate(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoxArray(n={len(self)}, ndim={self.ndim})"
