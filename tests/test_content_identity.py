"""One content identity: ``Dataset.fingerprint``.

A dataset's fingerprint is hashed at most once per object, travels with
it (pickles, shared-memory refs, enlarged copies) and keys every cache:
an index built under one name serves an equal-content copy under
another, and nothing on the serving path hashes twice.
"""

import pickle
import sys

import numpy as np
import pytest

import repro.storage.shm as shm
from repro import JoinRequest, ShardedQueryService, SpatialQueryService
from repro.datagen import scaled_space, uniform_dataset
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset
from repro.joins.distance import enlarged_dataset
from repro.storage.shm import SharedDatasetPool, attach_dataset

SOURCE_NAME = "alpha-original"


@pytest.fixture
def pair():
    space = scaled_space(800)
    a = uniform_dataset(400, seed=61, name=SOURCE_NAME, space=space)
    b = uniform_dataset(400, seed=62, name="B", id_offset=10**9, space=space)
    return a, b


def clone(dataset: Dataset, name: str) -> Dataset:
    """Equal content in fresh arrays under another name."""
    return Dataset(
        name,
        np.array(dataset.ids),
        BoxArray(np.array(dataset.boxes.lo), np.array(dataset.boxes.hi)),
    )


@pytest.fixture
def hashes(monkeypatch):
    """Counts calls of ``repro.storage.shm.content_fingerprint``, in
    every ``repro`` module that imported it by name."""
    calls = []
    real = shm.content_fingerprint

    def counted(*arrays):
        calls.append(1)
        return real(*arrays)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and (
            getattr(module, "content_fingerprint", None) is real
        ):
            monkeypatch.setattr(module, "content_fingerprint", counted)
    return calls


class TestDatasetFingerprint:
    def test_ids_are_read_only(self, pair):
        a, _ = pair
        before = a.fingerprint
        with pytest.raises(ValueError):
            a.ids[0] = 99
        assert a.fingerprint == before == shm.content_fingerprint(
            a.ids, a.boxes.lo, a.boxes.hi
        )

    def test_unpickled_arrays_stay_read_only(self, pair):
        copy = pickle.loads(pickle.dumps(pair[0]))
        for array in (copy.ids, copy.boxes.lo, copy.boxes.hi):
            with pytest.raises(ValueError):
                array[0] = 99

    def test_is_no_field(self, pair):
        a, _ = pair
        twin = clone(a, SOURCE_NAME)
        a.fingerprint
        assert "fingerprint" not in repr(a)
        assert repr(a) == repr(twin)


class TestContentKeyedReuse:
    def _without_source_name(self, report):
        assert SOURCE_NAME not in repr(report)

    def test_clone_reuses_the_index_under_its_own_name(self, pair):
        a, b = pair
        other = clone(a, "other")
        ws = SpatialWorkspace()
        first = ws.join(a, b)
        report = ws.join(other, b)
        assert report.reused_a and report.index_pages_written_a == 0
        assert report.dataset_a == "other"
        self._without_source_name(report)
        assert report.result.pairs.tobytes() == first.result.pairs.tobytes()
        assert ws.cached_sketch_count == 2

    def test_forgetting_the_clone_drops_the_source_entry(self, pair):
        a, b = pair
        ws = SpatialWorkspace()
        ws.join(a, b, algorithm="transformers")
        assert ws.forget(clone(a, "other")) == 1
        assert not ws.join(a, b, algorithm="transformers").reused_a

    def test_repeated_within_join_on_the_clone(self, pair):
        a, b = pair
        other = clone(a, "other")
        ws = SpatialWorkspace()
        first = ws.join(a, b, within=0.5)
        report = ws.join(other, b, within=0.5)
        assert report.reused_a and report.index_pages_written_a == 0
        assert report.dataset_a.startswith("other+0.5#")
        self._without_source_name(report)
        assert report.result.pairs.tobytes() == first.result.pairs.tobytes()
        # The enlarged side's index goes with its source's content.
        assert ws.forget(other) == 1
        assert not ws.join(a, b, within=0.5).reused_a


class TestNothingIsRehashed:
    def test_publish_of_a_fingerprinted_dataset(self, pair, hashes):
        a, _ = pair
        a.fingerprint
        hashes.clear()
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            assert ref is None or ref.fingerprint == a.fingerprint
        assert len(hashes) == 0

    def test_attach(self, pair, hashes):
        a, _ = pair
        with SharedDatasetPool() as pool:
            ref = pool.publish(a)
            if ref is None:
                pytest.skip("no shared memory on this platform")
            hashes.clear()
            assert attach_dataset(ref).fingerprint == a.fingerprint
        assert len(hashes) == 0

    def test_pickle_round_trip(self, pair, hashes):
        a, _ = pair
        a.fingerprint
        hashes.clear()
        assert pickle.loads(pickle.dumps(a)).fingerprint == a.fingerprint
        assert len(hashes) == 0

    def test_enlarged_dataset_hashes_once(self, pair, hashes):
        grown = enlarged_dataset(pair[0], 0.5)
        grown.fingerprint
        assert len(hashes) == 1
        assert grown.fingerprint == shm.content_fingerprint(
            grown.ids, grown.boxes.lo, grown.boxes.hi
        )

    @pytest.mark.parametrize(
        "make",
        [SpatialQueryService, lambda: ShardedQueryService(2, inline=True)],
        ids=["single", "sharded-inline"],
    )
    def test_registered_pair_miss(self, pair, hashes, make):
        a, b = pair
        with make() as service:
            service.register("a", a)
            service.register("b", b)
            hashes.clear()
            response = service.submit(JoinRequest("a", "b"))
            assert response.report is not None and not response.cached
        assert len(hashes) == 0
