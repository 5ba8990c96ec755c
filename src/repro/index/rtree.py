"""A disk-based R-tree, bulk-loaded with STR.

The synchronized R-tree traversal baseline (Brinkhoff, Kriegel & Seeger,
SIGMOD '93) joins two such trees; the indexed nested-loop baseline
queries one.  Following the paper's setup (Section VII-A), trees are
bulk-loaded with STR — "In practice STR balances the overhead of
partitioning the data and the size of MBBs well" — and the fanout is
derived from the disk page size.

Layout on the simulated disk:

* each *leaf* page stores an :class:`~repro.storage.page.ElementPage`
  (element ids and MBBs);
* each *internal* page stores an :class:`RTreeNode` — child page ids
  plus the MBB of each child subtree.

Leaves are written first, in STR order, so a full scan of the leaf
level is sequential; internal levels follow.  The leaves are the STR
element pages every data-oriented index writes
(:func:`~repro.index.str_pack.write_str_pages`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.str_pack import str_partition, write_str_pages
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity


@dataclass(frozen=True)
class RTreeNode:
    """Payload of one internal R-tree page.

    ``child_boxes[i]`` is the MBB of the subtree rooted at page
    ``children[i]``.
    """

    child_boxes: BoxArray
    children: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.child_boxes) != len(self.children):
            raise ValueError("child_boxes/children length mismatch")

    def __len__(self) -> int:
        return len(self.children)


def internal_fanout(page_size: int, ndim: int) -> int:
    """Entries per internal page: each entry is an MBB + a child pointer.

    For the paper's 8 KB pages in 3-D this gives 146; the paper quotes a
    fanout of 135 for its R-tree (slightly lower due to header bytes),
    so we deduct a fixed 512-byte header to land in the same regime.

    >>> internal_fanout(8192, 3)
    137
    """
    entry_size = 16 * ndim + 8  # two float64 corners + one int64 pointer
    usable = page_size - 512
    if usable < entry_size:
        raise ValueError("page too small for even one internal entry")
    return usable // entry_size


class RTree:
    """An immutable, STR bulk-loaded R-tree on a simulated disk.

    Build with :meth:`bulk_load`; query with :meth:`range_query` (which
    charges page reads through the supplied buffer pool).  The
    synchronized-traversal join accesses nodes directly via
    :meth:`read_node`.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        root_page: int,
        height: int,
        ndim: int,
        num_elements: int,
        leaf_pages: tuple[int, ...],
    ) -> None:
        self.disk = disk
        self.root_page = root_page
        self.height = height  # 1 = the root is a leaf
        self.ndim = ndim
        self.num_elements = num_elements
        self.leaf_pages = leaf_pages

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def bulk_load(
        disk: SimulatedDisk,
        ids: np.ndarray,
        boxes: BoxArray,
        page_size: int | None = None,
    ) -> "RTree":
        """STR bulk-load of ``boxes`` (with external ids) onto ``disk``.

        The tree is packed bottom-up: STR tiles of element centres
        become leaves; STR tiles of leaf-MBB centres become the next
        level, and so on until a single root remains.
        """
        if len(ids) != len(boxes):
            raise ValueError("ids and boxes must have equal length")
        if len(boxes) == 0:
            raise ValueError("cannot bulk-load an empty R-tree")
        page_size = page_size or disk.model.page_size
        ndim = boxes.ndim
        leaf_capacity = element_page_capacity(page_size, ndim)
        fanout = internal_fanout(page_size, ndim)

        # Leaf level: the STR element pages every data-oriented index
        # writes.
        leaf_ids, _, leaf_lo, leaf_hi, _, _ = write_str_pages(
            disk, ids, boxes, leaf_capacity
        )
        level_pages = leaf_ids.tolist()
        entry_boxes = BoxArray(leaf_lo, leaf_hi)
        leaf_pages = tuple(level_pages)
        height = 1

        # Internal levels.
        while len(level_pages) > 1:
            tiles = str_partition(entry_boxes.centers(), fanout)
            next_pages: list[int] = []
            next_boxes: list[Box] = []
            for tile in tiles:
                node = RTreeNode(
                    child_boxes=entry_boxes.take(tile),
                    children=tuple(level_pages[i] for i in tile),
                )
                next_pages.append(disk.allocate(node))
                next_boxes.append(node.child_boxes.mbb())
            level_pages = next_pages
            entry_boxes = BoxArray.from_boxes(next_boxes)
            height += 1

        return RTree(
            disk=disk,
            root_page=level_pages[0],
            height=height,
            ndim=ndim,
            num_elements=len(boxes),
            leaf_pages=leaf_pages,
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def read_node(self, pool: BufferPool, page_id: int) -> RTreeNode | ElementPage:
        """Fetch a node payload through the buffer pool."""
        payload = pool.read(page_id)
        if not isinstance(payload, (RTreeNode, ElementPage)):
            raise TypeError(f"page {page_id} is not an R-tree page")
        return payload

    def root_mbb(self) -> Box:
        """MBB of the whole tree (peeked, no I/O charged)."""
        payload = self.disk.peek(self.root_page)
        if isinstance(payload, ElementPage):
            return payload.boxes.mbb()
        return payload.child_boxes.mbb()

    def range_query(
        self, query: Box, pool: BufferPool
    ) -> tuple[np.ndarray, int]:
        """Element ids whose MBB intersects ``query``.

        Returns ``(ids, tests)`` where ``tests`` counts the box
        intersection tests performed (inner-node entries plus leaf
        entries) — the metric the paper reports for the join baselines.
        """
        hits: list[np.ndarray] = []
        tests = 0
        stack = [self.root_page]
        while stack:
            payload = self.read_node(pool, stack.pop())
            if isinstance(payload, ElementPage):
                mask = payload.boxes.intersects_box(query)
                tests += len(payload)
                if mask.any():
                    hits.append(payload.ids[mask])
            else:
                mask = payload.child_boxes.intersects_box(query)
                tests += len(payload)
                for i in np.nonzero(mask)[0]:
                    stack.append(payload.children[int(i)])
        if not hits:
            return np.empty(0, dtype=np.int64), tests
        return np.concatenate(hits), tests

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RTree(height={self.height}, elements={self.num_elements}, "
            f"leaves={len(self.leaf_pages)})"
        )
