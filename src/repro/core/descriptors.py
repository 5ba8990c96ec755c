"""Space descriptors: the metadata structures of Section IV.

The paper's Figure 5 defines two descriptor kinds:

* a **space unit** descriptor: "a pointer to the corresponding disk
  page, su's partition MBB and su's page MBB".  The *page MBB* bounds
  the stored elements tightly; the *partition MBB* is the unit's cell
  in a gap-free tiling of space, which is what makes navigation
  between units possible ("Without the partition MBB there may be gaps
  between two neighboring pages MBBs ... and TRANSFORMERS cannot
  navigate between them");
* a **space node** descriptor: "the node's MBB that covers all its
  partitions and the neighbors of a space node".  Space units inherit
  connectivity from their parent node.

For speed the descriptors are held as structure-of-arrays numpy blocks
rather than one Python object per descriptor; the blocks know which
metadata page each descriptor notionally lives on so reads can be
charged as I/O.  What the adaptive walk and crawl navigate is a
:class:`DescriptorGraph`: TRANSFORMERS' node block is one, and so is
GIPSY's graph of element pages (:mod:`repro.joins.gipsy`), whose
descriptors are kept the same size for a fair comparison.
"""

from __future__ import annotations

import numpy as np

from repro._types import FloatArray, IntArray

from repro.geometry.slots import SlotPickleMixin
from repro.storage.disk import SimulatedDisk
from repro.vectorize import column_product

#: Approximate serialized size of one descriptor: two MBBs (page and
#: partition) stored as float32 corners (2·2·3·4 = 48 bytes), an
#: id/pointer, and its share of the neighbour list.  Determines
#: descriptors per metadata page and hence units per space node ("as
#: many level 1 space units as can be summarized and stored on a disk
#: page are combined into level 0 nodes").
DESCRIPTOR_SIZE = 64


class UnitDescriptorBlock(SlotPickleMixin):
    """Descriptors of all space units of one dataset.

    Attributes
    ----------
    page_lo / page_hi:
        ``(n_units, d)`` page MBBs (tight element bounds).
    part_lo / part_hi:
        ``(n_units, d)`` partition MBBs (gap-free tiling of space).
    element_page_ids:
        ``(n_units,)`` disk page holding each unit's elements.
    parent_node:
        ``(n_units,)`` index of the space node each unit belongs to.
    counts:
        ``(n_units,)`` number of elements per unit.
    """

    __slots__ = (
        "page_lo", "page_hi", "part_lo", "part_hi",
        "element_page_ids", "parent_node", "counts",
    )

    def __init__(
        self,
        page_lo: FloatArray,
        page_hi: FloatArray,
        part_lo: FloatArray,
        part_hi: FloatArray,
        element_page_ids: IntArray,
        parent_node: IntArray,
        counts: IntArray,
    ) -> None:
        n = len(element_page_ids)
        for arr in (page_lo, page_hi, part_lo, part_hi):
            if arr.shape[0] != n:
                raise ValueError("unit descriptor arrays disagree in length")
        if parent_node.shape != (n,) or counts.shape != (n,):
            raise ValueError("unit descriptor arrays disagree in length")
        self.page_lo = page_lo
        self.page_hi = page_hi
        self.part_lo = part_lo
        self.part_hi = part_hi
        self.element_page_ids = element_page_ids
        self.parent_node = parent_node
        self.counts = counts

    def __len__(self) -> int:
        return len(self.element_page_ids)

    def volumes(self) -> FloatArray:
        """Page-MBB volumes — the V terms of the transformation ratios."""
        return column_product(self.page_hi - self.page_lo)


class DescriptorGraph(SlotPickleMixin):
    """The descriptor graph the adaptive walk and crawl navigate.

    ``mbb_lo/hi`` bound each descriptor's elements tightly (the crawl's
    inclusion test); ``part_lo/hi`` are its cell in a gap-free tiling of
    space (the walk's distances and the crawl's expansion);
    ``neighbors[k]`` lists, ascending, the descriptors whose cells meet
    ``k``'s; ``meta_page_of``/``meta_page_ids`` map the descriptors onto
    the run of metadata pages they live on, so every visit is charged as
    a read, and ``meta_pages[k]`` is that page's id for descriptor ``k``
    (a list, for the walk and the crawl to look up without NumPy).
    TRANSFORMERS navigates its space nodes
    (:class:`NodeDescriptorBlock`), GIPSY its element pages.
    """

    __slots__ = (
        "mbb_lo", "mbb_hi", "part_lo", "part_hi",
        "neighbors", "meta_page_of", "meta_page_ids", "meta_pages",
    )

    def __init__(
        self,
        mbb_lo: FloatArray,
        mbb_hi: FloatArray,
        part_lo: FloatArray,
        part_hi: FloatArray,
        neighbors: list[IntArray],
        meta_page_of: IntArray,
        meta_page_ids: IntArray,
    ) -> None:
        n = len(neighbors)
        for arr in (mbb_lo, mbb_hi, part_lo, part_hi):
            if arr.shape[0] != n:
                raise ValueError("descriptor arrays disagree in length")
        if meta_page_of.shape != (n,):
            raise ValueError("descriptor arrays disagree in length")
        self.mbb_lo = mbb_lo
        self.mbb_hi = mbb_hi
        self.part_lo = part_lo
        self.part_hi = part_hi
        self.neighbors = neighbors
        self.meta_page_of = meta_page_of
        self.meta_page_ids = meta_page_ids
        self.meta_pages: list[int] = meta_page_ids[meta_page_of].tolist()

    def __len__(self) -> int:
        return len(self.neighbors)


class NodeDescriptorBlock(DescriptorGraph):
    """Descriptors of all space nodes of one dataset.

    ``mbb_lo/hi`` is the node MBB covering all of the node's units;
    ``part_lo/hi`` is the node's cell in the gap-free node-level tiling
    (the navigation structure).  ``desc_page_ids[k]`` is the disk page
    holding node *k*'s unit descriptors (one page per node — "as many
    level 1 space units as can be summarized and stored on a disk page
    are combined into level 0 nodes"); ``meta_page_of``/
    ``meta_page_ids`` map node descriptors themselves onto a run of
    metadata pages.
    """

    __slots__ = ("units", "desc_page_ids", "element_counts")

    def __init__(
        self,
        mbb_lo: FloatArray,
        mbb_hi: FloatArray,
        part_lo: FloatArray,
        part_hi: FloatArray,
        units: list[IntArray],
        neighbors: list[IntArray],
        desc_page_ids: IntArray,
        meta_page_of: IntArray,
        meta_page_ids: IntArray,
        element_counts: IntArray,
    ) -> None:
        super().__init__(
            mbb_lo, mbb_hi, part_lo, part_hi,
            neighbors, meta_page_of, meta_page_ids,
        )
        n = len(neighbors)
        if len(units) != n or desc_page_ids.shape != (n,):
            raise ValueError("node descriptor arrays disagree in length")
        if element_counts.shape != (n,):
            raise ValueError("node descriptor arrays disagree in length")
        self.units = units
        self.desc_page_ids = desc_page_ids
        self.element_counts = element_counts

    def volumes(self) -> FloatArray:
        """Node-MBB volumes — the V terms at node granularity."""
        return column_product(self.mbb_hi - self.mbb_lo)


def write_descriptor_pages(
    disk: SimulatedDisk, count: int, kind: str
) -> tuple[IntArray, IntArray]:
    """Pack ``count`` descriptors, in order, onto metadata pages of
    ``kind``: ``(meta_page_of, meta_page_ids)``, one write per page."""
    per_page = max(1, disk.model.page_size // DESCRIPTOR_SIZE)
    meta_page_of = np.arange(count, dtype=np.intp) // per_page
    meta_page_ids = np.array(
        disk.allocate_many((kind, m) for m in range(-(-count // per_page))),
        dtype=np.int64,
    )
    return meta_page_of, meta_page_ids
