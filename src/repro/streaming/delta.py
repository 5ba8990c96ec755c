"""Deterministic dataset deltas: insert/delete batches keyed by id.

A :class:`DatasetDelta` is the unit of mutation for streaming
workloads: a batch of element deletions (by id) and insertions (id +
box), canonicalised at construction so that equal logical changes are
equal objects byte for byte.  That canonical form is what makes the
whole streaming layer deterministic:

* :meth:`DatasetDelta.apply` produces a plain
  :class:`~repro.joins.base.Dataset` whose element order is a pure
  function of ``(input order, delta content)`` — survivors in input
  order, then insertions in ascending id order — so applying the same
  delta to equal content yields bit-identical arrays (and therefore
  equal :func:`~repro.storage.shm.content_fingerprint` digests) in any
  process;
* :meth:`DatasetDelta.digest` hashes the canonical delta bytes under a
  versioned domain separator.

An id may appear in both the delete and insert batches: the delete
applies first, so the pair expresses a *move* (same element, new box).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from repro._types import FloatArray, IntArray
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset

#: Domain separator for delta digests, versioned: bump when the
#: canonical byte layout changes so persisted digests cannot alias.
DELTA_MAGIC = b"repro.delta.v1"


@dataclass(frozen=True, eq=False)
class DatasetDelta:
    """One deterministic batch of deletions and insertions.

    ``delete_ids`` is canonicalised to sorted-unique int64;
    ``insert_ids``/``insert_boxes`` are co-sorted by ascending id (ids
    must be unique within the batch).  All arrays are write-protected
    copies — a delta is a value, never a view into caller state.
    """

    delete_ids: IntArray
    insert_ids: IntArray
    insert_boxes: BoxArray

    def __post_init__(self) -> None:
        deletes = np.unique(np.asarray(self.delete_ids, dtype=np.int64))
        deletes.setflags(write=False)
        inserts = np.asarray(self.insert_ids, dtype=np.int64)
        if inserts.ndim != 1:
            raise ValueError("insert_ids must be one-dimensional")
        if len(inserts) != len(self.insert_boxes):
            raise ValueError(
                "insert_ids and insert_boxes must have equal length"
            )
        order = np.argsort(inserts, kind="stable")
        inserts = inserts[order]
        if (inserts[1:] == inserts[:-1]).any():
            raise ValueError("insert ids must be unique within a delta")
        inserts.setflags(write=False)
        boxes = self.insert_boxes.take(order) if len(order) else self.insert_boxes
        object.__setattr__(self, "delete_ids", deletes)
        object.__setattr__(self, "insert_ids", inserts)
        object.__setattr__(self, "insert_boxes", boxes)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, ndim: int = 3) -> "DatasetDelta":
        """The no-op delta (applies as the identity)."""
        return cls(
            delete_ids=np.empty(0, dtype=np.int64),
            insert_ids=np.empty(0, dtype=np.int64),
            insert_boxes=BoxArray.empty(ndim),
        )

    @classmethod
    def inserting(cls, ids: IntArray, boxes: BoxArray) -> "DatasetDelta":
        """A pure-insertion delta."""
        return cls(
            delete_ids=np.empty(0, dtype=np.int64),
            insert_ids=np.asarray(ids, dtype=np.int64),
            insert_boxes=boxes,
        )

    @classmethod
    def deleting(cls, ids: IntArray, ndim: int = 3) -> "DatasetDelta":
        """A pure-deletion delta."""
        return cls(
            delete_ids=np.asarray(ids, dtype=np.int64),
            insert_ids=np.empty(0, dtype=np.int64),
            insert_boxes=BoxArray.empty(ndim),
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total mutated elements (deletions plus insertions)."""
        return int(len(self.delete_ids) + len(self.insert_ids))

    @property
    def is_noop(self) -> bool:
        """True when applying this delta changes nothing."""
        return self.size == 0

    def fraction(self, base_n: int) -> float:
        """Delta size relative to a base cardinality (the patch
        threshold's input; 0 elements count as 1 to stay finite)."""
        return self.size / max(base_n, 1)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def touched_ids(self) -> IntArray:
        """Ids this delta mutates on its own side (delete ∪ insert).

        This is the set a cached pair list must be purged of before the
        insertion joins re-add the fresh pairs — insertions included,
        because a *moved* element's old pairs are stale too.
        """
        out: IntArray = np.union1d(self.delete_ids, self.insert_ids)
        return out

    def apply(self, dataset: Dataset) -> Dataset:
        """The dataset after this delta, deterministically ordered.

        Survivors keep their input order; insertions follow in
        ascending id order.  Every delete id must exist in ``dataset``
        (``KeyError`` otherwise) and insert ids must not collide with
        surviving ids (``ValueError``) — silent upserts would make
        delta lineages ambiguous.
        """
        ids = dataset.ids
        if len(self.delete_ids):
            present = np.isin(self.delete_ids, ids)
            if not bool(present.all()):
                missing = self.delete_ids[~present][:5].tolist()
                raise KeyError(
                    f"delta deletes ids not in dataset "
                    f"{dataset.name!r}: {missing}"
                )
            keep = ~np.isin(ids, self.delete_ids)
        else:
            keep = np.ones(len(ids), dtype=bool)
        surviving = ids[keep]
        if not len(self.insert_ids):
            return Dataset(
                dataset.name,
                surviving,
                BoxArray(dataset.boxes.lo[keep], dataset.boxes.hi[keep]),
            )
        if self.insert_boxes.ndim != dataset.ndim:
            raise ValueError(
                f"delta inserts {self.insert_boxes.ndim}-d boxes into a "
                f"{dataset.ndim}-d dataset"
            )
        clash = np.isin(self.insert_ids, surviving)
        if bool(clash.any()):
            dupes = self.insert_ids[clash][:5].tolist()
            raise ValueError(
                f"delta inserts ids already present in dataset "
                f"{dataset.name!r}: {dupes} (delete first to move)"
            )
        new_ids: IntArray = np.concatenate([surviving, self.insert_ids])
        new_lo: FloatArray = np.concatenate(
            [dataset.boxes.lo[keep], self.insert_boxes.lo]
        )
        new_hi: FloatArray = np.concatenate(
            [dataset.boxes.hi[keep], self.insert_boxes.hi]
        )
        return Dataset(dataset.name, new_ids, BoxArray(new_lo, new_hi))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Hex SHA-256 over the delta's canonical bytes: equal logical
        changes have equal digests.

        The benchmark's ``serve_inputs_digest`` (``bench/workloads.py``)
        pins the serve workloads' delta stream with it."""
        h = hashlib.sha256()
        h.update(DELTA_MAGIC)
        h.update(
            struct.pack(
                "<qqq",
                len(self.delete_ids),
                len(self.insert_ids),
                self.insert_boxes.ndim,
            )
        )
        h.update(np.ascontiguousarray(self.delete_ids, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.insert_ids, dtype="<i8").tobytes())
        h.update(
            np.ascontiguousarray(self.insert_boxes.lo, dtype="<f8").tobytes()
        )
        h.update(
            np.ascontiguousarray(self.insert_boxes.hi, dtype="<f8").tobytes()
        )
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetDelta):
            return NotImplemented
        return (
            np.array_equal(self.delete_ids, other.delete_ids)
            and np.array_equal(self.insert_ids, other.insert_ids)
            and np.array_equal(self.insert_boxes.lo, other.insert_boxes.lo)
            and np.array_equal(self.insert_boxes.hi, other.insert_boxes.hi)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatasetDelta(deletes={len(self.delete_ids)}, "
            f"inserts={len(self.insert_ids)})"
        )
