"""A bulk-loaded B+-tree over integer keys.

TRANSFORMERS "indexes the Hilbert value of the center point of all
space nodes in a dataset with a B+-Tree ... instead of an R-Tree (or
similar indexes) to avoid the issue of overlap and also to speed up
building the index" (paper, Section V).  The tree answers the one query
the adaptive walk needs: *given a Hilbert value, find the space node
whose centre's Hilbert value is nearest*, which we expose as
:meth:`BPlusTree.nearest` (plus ordinary :meth:`range_query` scans).

Pages live on the shared :class:`~repro.storage.disk.SimulatedDisk`, so
lookups are charged as I/O like every other structure in the
repository.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from dataclasses import dataclass

import numpy as np

from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


@dataclass(frozen=True)
class BPlusLeaf:
    """Payload of one leaf page: sorted keys and their values."""

    keys: tuple[int, ...]
    values: tuple[int, ...]
    next_leaf: int | None  # page id of the right sibling

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.values):
            raise ValueError("keys/values length mismatch")
        if any(a > b for a, b in zip(self.keys, self.keys[1:])):
            raise ValueError("leaf keys must be sorted")


@dataclass(frozen=True)
class BPlusInternal:
    """Payload of one internal page.

    ``separators[i]`` is the smallest key reachable under
    ``children[i + 1]``; a search for key ``k`` descends into
    ``children[bisect_right(separators, k)]``.
    """

    separators: tuple[int, ...]
    children: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.children) != len(self.separators) + 1:
            raise ValueError("internal node needs len(separators)+1 children")


def bplus_leaf_capacity(page_size: int) -> int:
    """Key/value pairs per leaf (16 bytes each, 64-byte header)."""
    usable = page_size - 64
    if usable < 16:
        raise ValueError("page too small for a B+-tree leaf entry")
    return usable // 16


class BPlusTree:
    """A static (bulk-loaded) B+-tree mapping int keys to int values.

    Duplicate keys are allowed; :meth:`range_query` returns every match.

    >>> disk = SimulatedDisk()
    >>> tree = BPlusTree.bulk_load(disk, [(5, 50), (1, 10), (9, 90)])
    >>> pool = BufferPool(disk)
    >>> tree.nearest(6, pool)
    (5, 50)
    >>> tree.range_query(1, 5, pool)
    [(1, 10), (5, 50)]
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        root_page: int,
        height: int,
        num_keys: int,
        first_leaf: int,
    ) -> None:
        self.disk = disk
        self.root_page = root_page
        self.height = height
        self.num_keys = num_keys
        self.first_leaf = first_leaf

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def bulk_load(
        disk: SimulatedDisk,
        items: list[tuple[int, int]] | np.ndarray,
        page_size: int | None = None,
    ) -> "BPlusTree":
        """Build a tree from ``(key, value)`` pairs (sorted internally)."""
        pairs = [(int(k), int(v)) for k, v in items]
        if not pairs:
            raise ValueError("cannot bulk-load an empty B+-tree")
        pairs.sort(key=itemgetter(0))
        page_size = page_size or disk.model.page_size
        leaf_capacity = bplus_leaf_capacity(page_size)
        fanout = max(2, leaf_capacity)

        # Leaf level: chunk the sorted pairs, chain siblings left to right.
        chunks = [
            pairs[start : start + leaf_capacity]
            for start in range(0, len(pairs), leaf_capacity)
        ]
        # Allocate ids first so each leaf can point at its successor.
        leaf_ids = [disk.allocate(None) for _ in chunks]
        for i, chunk in enumerate(chunks):
            next_leaf = leaf_ids[i + 1] if i + 1 < len(chunks) else None
            disk.write(
                leaf_ids[i],
                BPlusLeaf(
                    keys=tuple(k for k, _ in chunk),
                    values=tuple(v for _, v in chunk),
                    next_leaf=next_leaf,
                ),
            )
        level_pages = leaf_ids
        level_min_keys = [chunk[0][0] for chunk in chunks]
        height = 1

        # Internal levels.
        while len(level_pages) > 1:
            next_pages: list[int] = []
            next_min_keys: list[int] = []
            for start in range(0, len(level_pages), fanout):
                group_pages = level_pages[start : start + fanout]
                group_keys = level_min_keys[start : start + fanout]
                node = BPlusInternal(
                    separators=tuple(group_keys[1:]),
                    children=tuple(group_pages),
                )
                next_pages.append(disk.allocate(node))
                next_min_keys.append(group_keys[0])
            level_pages = next_pages
            level_min_keys = next_min_keys
            height += 1

        return BPlusTree(
            disk=disk,
            root_page=level_pages[0],
            height=height,
            num_keys=len(pairs),
            first_leaf=leaf_ids[0],
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _descend(self, key: int, pool: BufferPool) -> tuple[int, BPlusLeaf]:
        """Walk from the root to the leaf responsible for ``key``."""
        page_id = self.root_page
        payload = pool.read(page_id)
        while isinstance(payload, BPlusInternal):
            slot = bisect.bisect_right(payload.separators, key)
            page_id = payload.children[slot]
            payload = pool.read(page_id)
        if not isinstance(payload, BPlusLeaf):
            raise TypeError(f"page {page_id} is not a B+-tree leaf")
        return page_id, payload

    def nearest(self, key: int, pool: BufferPool) -> tuple[int, int]:
        """The ``(key, value)`` pair whose key is closest to ``key``.

        Ties break towards the smaller stored key.  This is the lookup
        TRANSFORMERS issues to find a start descriptor near a pivot.
        """
        page_id, leaf = self._descend(key, pool)
        candidates: list[tuple[int, int]] = []
        slot = bisect.bisect_left(leaf.keys, key)
        if slot < len(leaf.keys):
            candidates.append((leaf.keys[slot], leaf.values[slot]))
        if slot > 0:
            candidates.append((leaf.keys[slot - 1], leaf.values[slot - 1]))
        if slot == len(leaf.keys) and leaf.next_leaf is not None:
            sibling = pool.read(leaf.next_leaf)
            if isinstance(sibling, BPlusLeaf) and sibling.keys:
                candidates.append((sibling.keys[0], sibling.values[0]))
        if not candidates:
            # The responsible leaf can only be empty if the tree were
            # empty, which bulk_load forbids.
            raise RuntimeError("corrupt B+-tree: empty leaf on search path")
        return min(candidates, key=lambda kv: (abs(kv[0] - key), kv[0]))

    def range_query(
        self, lo: int, hi: int, pool: BufferPool
    ) -> list[tuple[int, int]]:
        """Every ``(key, value)`` with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return []
        _, leaf = self._descend(lo, pool)
        out: list[tuple[int, int]] = []
        current: BPlusLeaf | None = leaf
        while current is not None:
            for k, v in zip(current.keys, current.values):
                if k < lo:
                    continue
                if k > hi:
                    return out
                out.append((k, v))
            if current.next_leaf is None:
                break
            nxt = pool.read(current.next_leaf)
            current = nxt if isinstance(nxt, BPlusLeaf) else None
        return out

    def items(self, pool: BufferPool) -> list[tuple[int, int]]:
        """All pairs in key order (scans the leaf chain)."""
        out: list[tuple[int, int]] = []
        page_id: int | None = self.first_leaf
        while page_id is not None:
            leaf = pool.read(page_id)
            if not isinstance(leaf, BPlusLeaf):
                raise TypeError(f"page {page_id} is not a B+-tree leaf")
            out.extend(zip(leaf.keys, leaf.values))
            page_id = leaf.next_leaf
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BPlusTree(height={self.height}, keys={self.num_keys})"
