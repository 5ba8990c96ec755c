"""Tests for shared-memory dataset pages (repro.storage.shm).

The shm transport is an *optimization with an identity contract*: a
worker that attaches a published segment must see byte-for-byte the
dataset it would have received by pickling, and the publisher must not
leak segments — every publish is balanced by a release/close and the
segment is gone afterwards.  These tests pin both halves, the worker
side's mapping lifetime (the views own it: it lives exactly as long as
one of them), the id check every attach runs, and the fallback paths
(no shared memory on the platform, empty datasets); the
end-to-end guarantee (identical answers with the transport on or off,
no segment left after ``close()``) is pinned through the sharded tier
in ``tests/test_service_sharded.py``.
"""

import gc
import os
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset
from repro.storage import shm
from repro.storage.shm import (
    SharedDatasetPool,
    SharedDatasetRef,
    attach_dataset,
    content_fingerprint,
    shm_available,
)
from repro.streaming import DatasetDelta

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


class TestConcurrentAttach:
    def test_threads_racing_to_attach_share_one_mapping(self):
        """Inline shards attach from their callers' threads.  Every
        racer must get the one cached dataset: the attach cache's
        check-then-insert (a ``WeakValueDictionary`` keyed by segment)
        runs under ``_ATTACH_LOCK``, so the first racer maps the segment
        and the others find its entry."""
        workers = 4 * (os.cpu_count() or 1)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SharedDatasetPool() as pool, ThreadPoolExecutor(
                workers
            ) as executor:
                for seed in range(12):
                    dataset, _ = dataset_pair("uniform", 200, 10, seed=seed)
                    ref = pool.publish(dataset)
                    assert ref is not None
                    barrier = threading.Barrier(workers)

                    def attach():
                        barrier.wait(timeout=10.0)
                        return attach_dataset(ref)

                    futures = [
                        executor.submit(attach) for _ in range(workers)
                    ]
                    attached = [f.result(timeout=30.0) for f in futures]
                    # Every racer gets the one dataset of the shared
                    # ``_ATTACHED`` entry: the segment is mapped once.
                    assert len({id(d) for d in attached}) == 1
                    assert attached[0].ids.tobytes() == dataset.ids.tobytes()
        finally:
            sys.setswitchinterval(previous)


def _mapped(segment: str) -> bool:
    """Whether this process maps ``segment`` (``/proc`` only)."""
    with open("/proc/self/maps") as maps:
        return any(
            re.search(rf"/dev/shm/{segment}\b", line) for line in maps
        )


needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="no /proc"
)


class TestViewsOwnTheMapping:
    """An attach maps the segment read-only; its views own the mapping,
    so it outlives the dataset, its cache entry and the publisher's
    unlink exactly as long as one view does."""

    @needs_proc
    def test_a_view_outlives_dataset_cache_entry_and_unlink(self):
        a, _ = dataset_pair("uniform", 200, 10, seed=17)
        pool = SharedDatasetPool()
        ref = pool.publish(a)
        attached = attach_dataset(ref)
        ids, hi = attached.ids, attached.boxes.hi
        del attached
        gc.collect()
        assert ref.segment not in shm._ATTACHED
        pool.close()
        assert _mapped(ref.segment)  # the views' mapping, unlinked
        assert ids.tobytes() == a.ids.tobytes()
        assert hi.tobytes() == a.boxes.hi.tobytes()
        del ids, hi
        assert not _mapped(ref.segment)

    @needs_proc
    def test_no_view_left_leaves_no_entry_and_no_mapping(self):
        a, _ = dataset_pair("uniform", 200, 10, seed=18)
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            first = attach_dataset(ref)
            assert attach_dataset(ref) is first  # alive: one object
            del first
            gc.collect()
            assert ref.segment not in shm._ATTACHED
        assert not _mapped(ref.segment)
        with pytest.raises(FileNotFoundError):
            attach_dataset(ref)
        assert ref.segment not in shm._ATTACHED

    def test_threads_attaching_and_dropping_read_the_published_bytes(self):
        """Racers that attach while another thread drops the last view
        (so the cache entry dies mid-race) each get a live mapping."""
        a, _ = dataset_pair("uniform", 300, 10, seed=20)
        want = a.boxes.hi.tobytes()
        workers = 4 * (os.cpu_count() or 1)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SharedDatasetPool() as pool, ThreadPoolExecutor(
                workers
            ) as executor:
                ref = pool.publish(a)

                def churn():
                    return all(
                        attach_dataset(ref).boxes.hi.tobytes() == want
                        for _ in range(200)
                    )

                futures = [executor.submit(churn) for _ in range(workers)]
                assert all(f.result(timeout=60.0) for f in futures)
        finally:
            sys.setswitchinterval(previous)

    def test_reattach_after_the_last_view_maps_afresh(self):
        a, _ = dataset_pair("uniform", 120, 10, seed=19)
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            attach_dataset(ref)
            gc.collect()
            again = attach_dataset(ref)
            assert shm._ATTACHED[ref.segment] is again
            assert again.boxes.lo.tobytes() == a.boxes.lo.tobytes()


def _unit_boxes(n: int) -> BoxArray:
    lo = np.arange(3 * n, dtype=np.float64).reshape(n, 3)
    return BoxArray(lo, lo + 1.0)


#: ids -> whether they hold a duplicate.  The duplicates sit at the
#: first or the last sorted position, where a neighbour compare has one
#: neighbour only.
ID_CASES = {
    "dup-first-sorted": ([4, -7, 9, -7], True),
    "dup-last-sorted": ([9, 1, -2, 9], True),
    "dup-negative": ([-1, 5, -3, -1, 2], True),
    "negative-unique": ([-3, -1, -2, 4], False),
    "one": ([42], False),
    "none": ([], False),
}


class TestIdUniqueness:
    """``Dataset`` and ``DatasetDelta`` reject repeated ids (checked by
    sort plus neighbour compare) with the same message as before."""

    @pytest.mark.parametrize("case", sorted(ID_CASES))
    def test_dataset_and_delta_inserts(self, case):
        raw, duplicate = ID_CASES[case]
        ids = np.asarray(raw, dtype=np.int64)
        boxes = _unit_boxes(len(ids))
        if duplicate:
            with pytest.raises(ValueError, match="dataset ids must be unique"):
                Dataset("d", ids, boxes)
            with pytest.raises(
                ValueError, match="insert ids must be unique within a delta"
            ):
                DatasetDelta.inserting(ids, boxes)
        else:
            assert Dataset("d", ids, boxes).ids.tobytes() == ids.tobytes()
            inserted = DatasetDelta.inserting(ids, boxes).insert_ids
            assert inserted.tobytes() == np.sort(ids).tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(-30, 30, size=int(rng.integers(0, 12)))
        duplicate = len(np.unique(ids)) != len(ids)
        try:
            Dataset("d", ids, _unit_boxes(len(ids)))
        except ValueError:
            assert duplicate
        else:
            assert not duplicate


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
