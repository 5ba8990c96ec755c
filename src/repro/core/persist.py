"""Saving and loading TRANSFORMERS indexes.

The paper's index-reuse argument (Section VII-C1: "An index built on
one dataset can therefore be reused when joining with any other
dataset") implies indexes outlive single runs.  This module serialises
a :class:`~repro.core.indexing.TransformersIndex` — element pages,
descriptor blocks, connectivity, Hilbert keys — into a single ``.npz``
file and reconstructs it (with identical on-disk layout, hence
identical I/O behaviour) in a later session.

The format is plain numpy arrays; ragged structures (units per node,
neighbour lists) are stored as concatenation + offsets.  No pickle is
involved, so files are safe to share.
"""

from __future__ import annotations

import numpy as np

from repro._types import IntArray

from repro.core.descriptors import NodeDescriptorBlock, UnitDescriptorBlock
from repro.core.indexing import TransformersIndex
from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.bplustree import BPlusTree
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage

#: Format version written into every file; bumped on layout changes.
FORMAT_VERSION = 1


def _ragged_to_arrays(parts: list[IntArray]) -> tuple[IntArray, IntArray]:
    """Concatenate a ragged list into (values, offsets)."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    for i, part in enumerate(parts):
        offsets[i + 1] = offsets[i] + len(part)
    values = (
        np.concatenate(parts).astype(np.int64)
        if offsets[-1] > 0
        else np.empty(0, dtype=np.int64)
    )
    return values, offsets


def _arrays_to_ragged(
    values: IntArray, offsets: IntArray
) -> list[IntArray]:
    """Inverse of :func:`_ragged_to_arrays`."""
    return [
        values[offsets[i] : offsets[i + 1]].astype(np.intp)
        for i in range(len(offsets) - 1)
    ]


def save_index(index: TransformersIndex, path: str) -> None:
    """Serialise ``index`` (including element data) to ``path``.

    The element pages are read back via :meth:`SimulatedDisk.peek`
    (no I/O charged — persistence is out-of-band maintenance, not part
    of any measured phase).
    """
    units = index.units
    nodes = index.nodes

    # Element pages, gathered in unit order.
    pages = [index.disk.peek(pid) for pid in units.element_page_ids.tolist()]
    for t, page in enumerate(pages):
        if not isinstance(page, ElementPage):
            raise TypeError(f"unit {t} does not point at an element page")
    element_ids, element_boxes = ElementPage.gather(pages)

    node_units_values, node_units_offsets = _ragged_to_arrays(
        [np.asarray(u, dtype=np.int64) for u in nodes.units]
    )
    neighbor_values, neighbor_offsets = _ragged_to_arrays(
        [np.asarray(n, dtype=np.int64) for n in nodes.neighbors]
    )

    np.savez_compressed(
        path,
        format_version=np.int64(FORMAT_VERSION),
        dataset_name=np.bytes_(index.dataset_name.encode("utf-8")),
        num_elements=np.int64(index.num_elements),
        elements_per_unit=np.int64(index.elements_per_unit),
        units_per_node=np.int64(index.units_per_node),
        btree_bits=np.int64(index.btree_bits),
        page_size=np.int64(index.disk.model.page_size),
        space_lo=np.asarray(index.space.lo),
        space_hi=np.asarray(index.space.hi),
        node_slack=index.node_slack,
        max_extent=index.max_extent,
        element_ids=element_ids,
        element_lo=element_boxes.lo,
        element_hi=element_boxes.hi,
        element_offsets=np.cumsum([0, *map(len, pages)]),
        unit_page_lo=units.page_lo,
        unit_page_hi=units.page_hi,
        unit_part_lo=units.part_lo,
        unit_part_hi=units.part_hi,
        unit_counts=units.counts,
        unit_parent=units.parent_node.astype(np.int64),
        node_mbb_lo=nodes.mbb_lo,
        node_mbb_hi=nodes.mbb_hi,
        node_part_lo=nodes.part_lo,
        node_part_hi=nodes.part_hi,
        node_units_values=node_units_values,
        node_units_offsets=node_units_offsets,
        neighbor_values=neighbor_values,
        neighbor_offsets=neighbor_offsets,
        node_element_counts=nodes.element_counts,
    )


def load_index(
    path: str, disk: SimulatedDisk | None = None
) -> tuple[TransformersIndex, SimulatedDisk]:
    """Reconstruct an index saved by :func:`save_index`.

    A fresh :class:`SimulatedDisk` is created unless one is supplied
    (supply the same disk when loading several indexes that will be
    joined together).  Pages are re-allocated in the original order —
    element pages first, then descriptor pages, metadata pages and the
    B+-tree — so the loaded index has the same physical layout, and
    hence the same sequential/random read behaviour, as the original.
    """
    from repro.core.descriptors import DESCRIPTOR_SIZE
    from repro.geometry.hilbert import hilbert_index_batch

    with np.load(path) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        if disk is None:
            from repro.storage.disk import DiskModel

            disk = SimulatedDisk(DiskModel(page_size=int(data["page_size"])))
        elif disk.model.page_size != int(data["page_size"]):
            raise ValueError(
                "supplied disk's page size differs from the saved index's"
            )

        # One validated run; the pages are windows onto it, as built.
        pages = ElementPage.split(
            data["element_ids"],
            BoxArray(data["element_lo"], data["element_hi"]),
            data["element_offsets"],
        )
        element_page_ids = np.array(disk.allocate_many(pages), dtype=np.int64)

        units = UnitDescriptorBlock(
            page_lo=data["unit_page_lo"],
            page_hi=data["unit_page_hi"],
            part_lo=data["unit_part_lo"],
            part_hi=data["unit_part_hi"],
            element_page_ids=element_page_ids,
            parent_node=data["unit_parent"].astype(np.intp),
            counts=data["unit_counts"],
        )

        node_units = _arrays_to_ragged(
            data["node_units_values"], data["node_units_offsets"]
        )
        neighbors = _arrays_to_ragged(
            data["neighbor_values"], data["neighbor_offsets"]
        )
        n_nodes = len(node_units)
        desc_page_ids = np.array(
            disk.allocate_many(("unit-descriptors", k) for k in range(n_nodes)),
            dtype=np.int64,
        )
        per_meta_page = max(1, disk.model.page_size // DESCRIPTOR_SIZE)
        meta_page_of = np.arange(n_nodes, dtype=np.intp) // per_meta_page
        n_meta = int(meta_page_of.max()) + 1 if n_nodes else 0
        meta_page_ids = np.array(
            disk.allocate_many(("node-descriptors", m) for m in range(n_meta)),
            dtype=np.int64,
        )

        nodes = NodeDescriptorBlock(
            mbb_lo=data["node_mbb_lo"],
            mbb_hi=data["node_mbb_hi"],
            part_lo=data["node_part_lo"],
            part_hi=data["node_part_hi"],
            units=node_units,
            neighbors=neighbors,
            desc_page_ids=desc_page_ids,
            meta_page_of=meta_page_of,
            meta_page_ids=meta_page_ids,
            element_counts=data["node_element_counts"],
        )

        space = Box(tuple(data["space_lo"]), tuple(data["space_hi"]))
        btree_bits = int(data["btree_bits"])
        node_centers = (nodes.part_lo + nodes.part_hi) / 2.0
        hkeys = hilbert_index_batch(node_centers, space, bits=btree_bits)
        btree = BPlusTree.bulk_load(
            disk, [(int(hkeys[k]), k) for k in range(n_nodes)]
        )

        index = TransformersIndex(
            disk=disk,
            dataset_name=bytes(data["dataset_name"]).decode("utf-8"),
            num_elements=int(data["num_elements"]),
            units=units,
            nodes=nodes,
            btree=btree,
            max_extent=data["max_extent"],
            elements_per_unit=int(data["elements_per_unit"]),
            units_per_node=int(data["units_per_node"]),
            space=space,
            btree_bits=btree_bits,
            node_slack=data["node_slack"],
        )
    return index, disk
