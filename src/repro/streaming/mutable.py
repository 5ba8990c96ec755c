"""A dataset that evolves: base snapshot plus an applied-delta log.

:class:`MutableDataset` is the streaming tier's unit of state.  It
never mutates arrays in place — each
:meth:`~MutableDataset.apply` produces a fresh immutable
:class:`~repro.joins.base.Dataset` and appends the delta to a log, so:

* :meth:`~MutableDataset.materialize` can replay the log from the base
  snapshot and land on arrays *bit-identical* to the incrementally
  maintained current dataset (property-tested), and
* :meth:`~MutableDataset.lineage_fingerprint` can identify the state
  by hashing ``(base content fingerprint, delta digests...)`` without
  touching the element arrays at all — two replicas that applied the
  same deltas to the same base agree on the lineage fingerprint, and
  equal lineages imply equal
  :attr:`~repro.joins.base.Dataset.fingerprint` of the materialised
  content.
"""

from __future__ import annotations

import hashlib

from repro.geometry.slots import SlotPickleMixin
from repro.joins.base import Dataset
from repro.streaming.delta import DatasetDelta

#: Domain separator for lineage fingerprints (base digest folded with
#: the digest of every applied delta, in order).
LINEAGE_MAGIC = b"repro.lineage.v1"


class MutableDataset(SlotPickleMixin):
    """Base snapshot + ordered delta log, with deterministic replay."""

    __slots__ = ("_base", "_current", "_deltas")

    def __init__(self, base: Dataset) -> None:
        self._base = base
        self._current = base
        self._deltas: list[DatasetDelta] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def base(self) -> Dataset:
        """The original snapshot the delta log applies to."""
        return self._base

    @property
    def current(self) -> Dataset:
        """The dataset after every logged delta."""
        return self._current

    @property
    def deltas(self) -> tuple[DatasetDelta, ...]:
        """The applied deltas, oldest first."""
        return tuple(self._deltas)

    def __len__(self) -> int:
        return len(self._current)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, delta: DatasetDelta) -> Dataset:
        """Apply ``delta`` to the current state and log it.

        Returns the new current dataset.  Validation errors from
        :meth:`DatasetDelta.apply` propagate *before* the log is
        touched, so a rejected delta leaves the state unchanged.
        """
        updated = delta.apply(self._current)
        self._deltas.append(delta)
        self._current = updated
        return updated

    # ------------------------------------------------------------------
    # Determinism witnesses
    # ------------------------------------------------------------------
    def materialize(self) -> Dataset:
        """Replay the delta log from the base snapshot.

        Bit-identical to :attr:`current` (and therefore shares its
        content fingerprint): delta application is a pure function of
        content, so replay and incremental maintenance cannot diverge.
        """
        dataset = self._base
        for delta in self._deltas:
            dataset = delta.apply(dataset)
        return dataset

    def content_fingerprint(self) -> str:
        """Content fingerprint of the current element arrays."""
        return self._current.fingerprint

    def lineage_fingerprint(self) -> str:
        """Hex SHA-256 over (base content fingerprint, delta digests).

        Computable without rehashing element arrays: the base
        fingerprint is hashed once and each delta contributes its
        canonical digest.  Equal lineages materialise equal content, so
        replicas can compare this cheaply before exchanging data.
        """
        h = hashlib.sha256()
        h.update(LINEAGE_MAGIC)
        h.update(self._base.fingerprint.encode("ascii"))
        for delta in self._deltas:
            h.update(delta.digest().encode("ascii"))
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableDataset(name={self._current.name!r}, "
            f"n={len(self._current)}, deltas={len(self._deltas)})"
        )
