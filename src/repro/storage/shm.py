"""Shared-memory dataset pages for the sharded service tier.

A :class:`~repro.joins.base.Dataset` is three immutable numpy arrays
(ids, box lows, box highs).  Pickling them into a shard process with
every command that reads them scales the delivery cost with the
dataset size.  This module lets the sharded tier's router publish
those pages once into POSIX shared memory so shard workers *attach*
instead of deserialising:

* :func:`content_fingerprint` — the canonical content digest (single
  definition of the byte layout), which
  :attr:`Dataset.fingerprint <repro.joins.base.Dataset.fingerprint>`
  computes and which keys the segments;
* :class:`SharedDatasetRef` — the tiny picklable handle a
  :class:`~repro.service.wire.DatasetPayload` ships in place of the
  arrays (fingerprint + segment name + shape);
* :class:`SharedDatasetPool` — the publishing side: refcounted
  segments keyed by content fingerprint, explicit
  :meth:`~SharedDatasetPool.close` / per-ref release, usable as a
  context manager;
* :func:`attach_dataset` — the worker side: map the segment and
  rebuild the dataset as zero-copy views.

Lifecycle (POSIX semantics): the publisher ``unlink``\\ s a segment
when its refcount drops to zero or on :meth:`~SharedDatasetPool.close`;
a mapping made before the unlink stays valid, but no *new* attach can
succeed after it.  So the publisher must not release a segment while a
command that carries its ref may still attach it; the sharded router
keeps that rule (a segment lives while a name serves its content or a
sent command carries it).  A worker maps a segment read-only, and the
views it hands out own that mapping: it is unmapped when the last view
dies, never under a live one, and an unlinked segment's pages are
freed once no process maps it.  Attaches are cached weakly: the same
dataset object comes back only while it is alive.

Fallback: publishing is skipped on platforms without POSIX shared
memory, for empty datasets, and whenever segment creation fails (e.g.
a full ``/dev/shm``).  :meth:`SharedDatasetPool.publish` then returns
``None`` and callers fall back to pickling the dataset —
byte-identical results, just slower delivery.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._types import AnyArray, FloatArray, IntArray

if TYPE_CHECKING:
    from repro.joins.base import Dataset

try:  # pragma: no cover - import guard for exotic platforms
    import _posixshmem
    from multiprocessing.shared_memory import SharedMemory

    #: A worker's mapping: shared, prefaulted where the platform can.
    _MAP_FLAGS = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
    _HAVE_SHM = True
except ImportError:  # pragma: no cover
    _HAVE_SHM = False

__all__ = [
    "FINGERPRINT_MAGIC",
    "SharedDatasetRef",
    "SharedDatasetPool",
    "attach_dataset",
    "content_fingerprint",
    "shm_available",
]

#: Domain separator, versioned: bump when the canonical byte layout
#: changes so old persisted fingerprints cannot silently alias new ones.
FINGERPRINT_MAGIC = b"repro.dataset.v1"


def content_fingerprint(
    ids: AnyArray, lo: AnyArray, hi: AnyArray
) -> str:
    """Hex SHA-256 digest of a dataset's canonical content bytes.

    The canonical form is little-endian int64 ids and IEEE-754 float64
    bounds, C-contiguous row-major, prefixed with cardinality and
    dimensionality so structurally different datasets can never collide
    byte-wise.  Names are deliberately excluded: equal elements are the
    same data wherever they came from.
    """
    ids = np.asarray(ids)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    digest = hashlib.sha256()
    digest.update(FINGERPRINT_MAGIC)
    digest.update(struct.pack("<qq", ids.shape[0], lo.shape[1]))
    digest.update(np.ascontiguousarray(ids, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(lo, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(hi, dtype="<f8").tobytes())
    return digest.hexdigest()


def shm_available() -> bool:
    """True when this platform can create shared-memory segments."""
    return _HAVE_SHM


@dataclass(frozen=True)
class SharedDatasetRef:
    """A picklable stand-in for a published dataset.

    Everything a worker needs to attach: the segment name, the shape
    that decodes the segment's byte layout, and the dataset's identity
    (content fingerprint plus display name).  A few hundred bytes on
    the wire regardless of dataset size.
    """

    name: str
    fingerprint: str
    segment: str
    n: int
    ndim: int

    def nbytes(self) -> int:
        """Total payload size of the segment this ref points to."""
        return _segment_nbytes(self.n, self.ndim)


def _segment_nbytes(n: int, ndim: int) -> int:
    """ids int64 (n,) + lo/hi float64 (n, ndim), packed back to back."""
    return 8 * n + 2 * 8 * n * ndim


def _segment_views(
    buf: memoryview | mmap.mmap, n: int, ndim: int
) -> tuple[IntArray, FloatArray, FloatArray]:
    """(ids, lo, hi) numpy views over a segment buffer; they are
    read-only when the buffer is, and keep it alive."""
    side = n * ndim
    ids = np.frombuffer(buf, dtype=np.int64, count=n)
    lo = np.frombuffer(buf, dtype=np.float64, count=side, offset=8 * n)
    hi = np.frombuffer(
        buf, dtype=np.float64, count=side, offset=8 * (n + side)
    )
    return ids, lo.reshape(n, ndim), hi.reshape(n, ndim)


class SharedDatasetPool:
    """Publishing side: refcounted shared-memory segments per dataset.

    Segments are keyed by content fingerprint, so publishing the same
    content twice (even via distinct ``Dataset`` objects) shares one
    segment and bumps its refcount; :meth:`release` decrements and
    unlinks at zero.  :meth:`close` force-releases everything — the
    pool owner (the sharded tier's router) calls it on shutdown, after
    which no new attach succeeds but already-attached workers keep
    their mappings.

    Not thread-safe by design: the router touches its pool only under
    its catalog-mutation lock, so concurrent callers never share one
    instance unguarded.
    """

    def __init__(self) -> None:
        self._enabled = shm_available()
        #: fingerprint -> (segment, ref, refcount)
        self._segments: dict[
            str, tuple[SharedMemory, SharedDatasetRef, int]
        ] = {}

    @property
    def enabled(self) -> bool:
        """False when every publish will fall back to pickling."""
        return self._enabled

    @property
    def active_segments(self) -> int:
        """Distinct shared-memory segments currently alive."""
        return len(self._segments)

    def publish(self, dataset: Any) -> SharedDatasetRef | None:
        """Copy a dataset's pages into shared memory; ``None`` = fall back.

        Accepts any object with ``ids`` (int64 ``(n,)``), ``boxes``
        (``lo``/``hi`` float64 ``(n, d)``) and a content
        ``fingerprint`` — i.e. a :class:`~repro.joins.base.Dataset`,
        whose digest the router has already taken — without importing
        the joins layer from storage.  Returns ``None`` (caller
        pickles) when the platform has no shared memory, the dataset is
        empty (a zero-byte segment cannot exist), or segment creation
        fails.
        """
        if not self._enabled:
            return None
        ids = np.asarray(dataset.ids)
        lo = np.asarray(dataset.boxes.lo)
        hi = np.asarray(dataset.boxes.hi)
        n, ndim = lo.shape
        if n == 0:
            return None
        fingerprint = dataset.fingerprint
        entry = self._segments.get(fingerprint)
        if entry is not None:
            shm, ref, count = entry
            self._segments[fingerprint] = (shm, ref, count + 1)
            return ref
        try:
            shm = SharedMemory(
                create=True, size=_segment_nbytes(n, ndim)
            )
        except OSError:
            # /dev/shm full or otherwise unusable: degrade to pickling
            # for this dataset (and likely the rest of the batch, but
            # each publish re-tries — transient pressure may clear).
            return None
        try:
            dst_ids, dst_lo, dst_hi = _segment_views(shm.buf, n, ndim)
            dst_ids[:] = ids
            dst_lo[:] = lo
            dst_hi[:] = hi
            # Drop the local views before returning: numpy arrays over
            # shm.buf count as exported buffers and would make a later
            # close() raise BufferError.
            del dst_ids, dst_lo, dst_hi
            ref = SharedDatasetRef(
                name=str(getattr(dataset, "name", "")),
                fingerprint=fingerprint,
                segment=shm.name,
                n=int(n),
                ndim=int(ndim),
            )
            self._segments[fingerprint] = (shm, ref, 1)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return ref

    def release(self, ref: SharedDatasetRef) -> None:
        """Drop one reference; the segment is unlinked at refcount zero.

        Releasing a ref this pool does not own is a no-op — the ref may
        have come from a pool that already closed.
        """
        entry = self._segments.get(ref.fingerprint)
        if entry is None:
            return
        shm, kept_ref, count = entry
        if count > 1:
            self._segments[ref.fingerprint] = (shm, kept_ref, count - 1)
            return
        del self._segments[ref.fingerprint]
        self._destroy(shm)

    def close(self) -> None:
        """Unlink every remaining segment, whatever its refcount."""
        segments = list(self._segments.values())
        self._segments.clear()
        for shm, _ref, _count in segments:
            self._destroy(shm)

    @staticmethod
    def _destroy(shm: SharedMemory) -> None:
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedDatasetPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedDatasetPool(enabled={self._enabled}, "
            f"segments={len(self._segments)})"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: segment name -> the dataset attached from it, while that dataset
#: lives.  Its arrays own the read-only mapping they view (nothing else
#: holds it), so the mapping goes with the last view and no view can
#: outlive it.
_ATTACHED: weakref.WeakValueDictionary[str, Dataset] = (
    weakref.WeakValueDictionary()
)
#: Makes an attach's check-then-insert on ``_ATTACHED`` atomic: inline
#: shards attach from their callers' threads, and every racer must get
#: the one dataset.
_ATTACH_LOCK = threading.Lock()


def attach_dataset(ref: SharedDatasetRef) -> Dataset:
    """The dataset behind ``ref``, rebuilt as zero-copy views.

    Raises ``FileNotFoundError`` when the segment no longer exists
    (the publisher released it before this worker attached) and
    ``RuntimeError`` on platforms without shared memory — both are
    pipeline bugs on the publishing side, not conditions to mask.
    The segment is mapped read-only with no ``SharedMemory`` object
    (nothing registers with the resource tracker); the returned views
    own that mapping, which is unmapped once the last of them dies.
    Repeat attaches of one segment return the same dataset object
    while it is alive, and map the segment afresh after.  The dataset's
    :attr:`~repro.joins.base.Dataset.fingerprint` is the ref's: nothing
    is hashed.
    """
    from repro.geometry.boxes import BoxArray
    from repro.joins.base import Dataset

    with _ATTACH_LOCK:
        dataset = _ATTACHED.get(ref.segment)
        if dataset is not None:
            return dataset
        if not _HAVE_SHM:  # pragma: no cover - platform guard
            raise RuntimeError(
                "shared memory is unavailable on this platform; the "
                "publisher should have fallen back to pickling"
            )
        fd = _posixshmem.shm_open(f"/{ref.segment}", os.O_RDONLY)
        try:
            mapping = mmap.mmap(
                fd, ref.nbytes(), flags=_MAP_FLAGS, prot=mmap.PROT_READ
            )
        finally:
            os.close(fd)
        ids, lo, hi = _segment_views(mapping, ref.n, ref.ndim)
        dataset = Dataset(name=ref.name, ids=ids, boxes=BoxArray(lo, hi))
        object.__setattr__(dataset, "fingerprint", ref.fingerprint)
        _ATTACHED[ref.segment] = dataset
        return dataset
