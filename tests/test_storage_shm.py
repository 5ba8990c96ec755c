"""Tests for shared-memory dataset pages (repro.storage.shm).

The shm transport is an *optimization with an identity contract*: a
worker that attaches a published segment must see byte-for-byte the
dataset it would have received by pickling, and the publisher must not
leak segments — every publish is balanced by a release/close and the
segment is gone afterwards.  These tests pin both halves plus the
fallback paths (no shared memory on the platform, empty datasets); the
end-to-end guarantee (identical answers with the transport on or off,
no segment left after ``close()``) is pinned through the sharded tier
in ``tests/test_service_sharded.py``.
"""

import pickle

import numpy as np
import pytest

from repro.storage.shm import (
    SharedDatasetPool,
    SharedDatasetRef,
    attach_dataset,
    content_fingerprint,
    shm_available,
)

from tests.conftest import dataset_pair

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory"
)


def _reattach(name: str):
    """Attach a segment by name, bypassing the worker-side cache."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


class TestPublishAttach:
    def test_round_trip_is_byte_identical_to_pickling(self):
        a, _ = dataset_pair("clustered", 300, 10, seed=7)
        via_pickle = pickle.loads(pickle.dumps(a))
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            assert ref is not None
            attached = attach_dataset(ref)
            assert attached.name == a.name
            for got, want in (
                (attached.ids, via_pickle.ids),
                (attached.boxes.lo, via_pickle.boxes.lo),
                (attached.boxes.hi, via_pickle.boxes.hi),
            ):
                assert got.tobytes() == want.tobytes()
            # The attached views are read-only: nothing downstream may
            # scribble on a mapping other workers share.
            with pytest.raises(ValueError):
                attached.ids[0] = -1

    def test_ref_is_tiny_and_picklable(self):
        a, _ = dataset_pair("uniform", 500, 10, seed=8)
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            wire = pickle.dumps(ref)
            assert len(wire) < 1024 < len(pickle.dumps(a))
            clone = pickle.loads(wire)
            assert clone == ref
            assert clone.nbytes() == 8 * 500 + 2 * 8 * 500 * 3

    def test_fingerprint_keys_the_segment(self):
        a, _ = dataset_pair("uniform", 120, 10, seed=9)
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            assert ref.fingerprint == content_fingerprint(
                a.ids, a.boxes.lo, a.boxes.hi
            )


class TestRefcounting:
    def test_same_content_shares_one_segment(self):
        a, _ = dataset_pair("uniform", 150, 10, seed=10)
        twin = type(a)(name="other-name", ids=a.ids, boxes=a.boxes)
        with SharedDatasetPool() as pool:
            ref1 = pool.publish(a)
            ref2 = pool.publish(twin)
            assert ref1.segment == ref2.segment
            assert pool.active_segments == 1

    def test_release_unlinks_at_zero(self):
        a, _ = dataset_pair("uniform", 150, 10, seed=11)
        pool = SharedDatasetPool()
        ref = pool.publish(a)
        pool.publish(a)  # refcount 2
        pool.release(ref)
        assert pool.active_segments == 1  # still held once
        segment = _reattach(ref.segment)  # alive: attach succeeds
        segment.close()
        pool.release(ref)
        assert pool.active_segments == 0
        with pytest.raises(FileNotFoundError):
            _reattach(ref.segment)

    def test_release_of_foreign_ref_is_noop(self):
        pool = SharedDatasetPool()
        foreign = SharedDatasetRef(
            name="x", fingerprint="f" * 64, segment="nope", n=1, ndim=3
        )
        pool.release(foreign)  # must not raise
        pool.close()

    def test_close_frees_every_segment(self):
        a, b = dataset_pair("uniform", 150, 150, seed=12)
        pool = SharedDatasetPool()
        refs = [pool.publish(a), pool.publish(b), pool.publish(a)]
        assert pool.active_segments == 2
        pool.close()
        assert pool.active_segments == 0
        for ref in refs:
            with pytest.raises(FileNotFoundError):
                _reattach(ref.segment)

    def test_attach_after_unlink_fails_loudly(self):
        a, _ = dataset_pair("uniform", 80, 10, seed=13)
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
        with pytest.raises(FileNotFoundError):
            attach_dataset(ref)


class TestFallback:
    def test_no_shared_memory_forces_pickling(self, monkeypatch):
        a, _ = dataset_pair("uniform", 100, 10, seed=14)
        monkeypatch.setattr(
            "repro.storage.shm.shm_available", lambda: False
        )
        pool = SharedDatasetPool()
        assert not pool.enabled
        assert pool.publish(a) is None
        pool.close()

    def test_empty_dataset_falls_back(self):
        from repro.geometry.boxes import BoxArray

        a, _ = dataset_pair("uniform", 100, 10, seed=16)
        empty = type(a)(
            name="empty",
            ids=np.asarray([], dtype=np.int64),
            boxes=BoxArray.empty(3),
        )
        with SharedDatasetPool() as pool:
            assert pool.publish(empty) is None
            assert pool.active_segments == 0
