"""Property tests for dataset content fingerprints.

The result cache's correctness rests entirely on the fingerprint
contract: equal content must always produce equal digests (across
object identities, construction paths, pickle round-trips, and
processes), and *any* element perturbation must change the digest.
Hypothesis drives both directions over randomly shaped datasets.
"""

import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import scaled_space, uniform_dataset
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset
from repro.service import dataset_fingerprint, request_cache_key
from repro.service.catalog import DatasetCatalog


@st.composite
def datasets(draw, min_n=1, max_n=24):
    """A small random dataset with integer-valued (exact) coordinates."""
    ndim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_n, max_n))
    ids = np.asarray(
        draw(
            st.lists(
                st.integers(0, 10**6), min_size=n, max_size=n, unique=True
            )
        ),
        dtype=np.int64,
    )
    coords = st.integers(-1000, 1000)
    lo = np.asarray(
        draw(st.lists(coords, min_size=n * ndim, max_size=n * ndim)),
        dtype=np.float64,
    ).reshape(n, ndim)
    extent = np.asarray(
        draw(
            st.lists(
                st.integers(0, 100), min_size=n * ndim, max_size=n * ndim
            )
        ),
        dtype=np.float64,
    ).reshape(n, ndim)
    name = draw(st.sampled_from(["left", "right", "probe"]))
    return Dataset(name, ids, BoxArray(lo, lo + extent))


def rebuild(dataset: Dataset, name: str = "rebuilt") -> Dataset:
    """The same content as fresh arrays under a different name."""
    return Dataset(
        name,
        np.array(dataset.ids, copy=True),
        BoxArray(
            np.array(dataset.boxes.lo, copy=True),
            np.array(dataset.boxes.hi, copy=True),
        ),
    )


class TestFingerprintStability:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_equal_content_equal_fingerprint(self, dataset):
        """Identity, name and construction path never matter."""
        assert dataset_fingerprint(dataset) == dataset_fingerprint(
            rebuild(dataset)
        )

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_pickle_roundtrip_preserves_fingerprint(self, dataset):
        clone = pickle.loads(pickle.dumps(dataset))
        assert clone is not dataset
        assert dataset_fingerprint(clone) == dataset_fingerprint(dataset)

    @settings(max_examples=40, deadline=None)
    @given(datasets(min_n=2))
    def test_element_order_matters(self, dataset):
        """A dataset is an ordered array, not a set: reversing changes it."""
        reversed_ds = Dataset(
            dataset.name,
            dataset.ids[::-1],
            dataset.boxes.take(np.arange(len(dataset))[::-1]),
        )
        if np.array_equal(reversed_ds.ids, dataset.ids) and np.array_equal(
            reversed_ds.boxes.lo, dataset.boxes.lo
        ) and np.array_equal(reversed_ds.boxes.hi, dataset.boxes.hi):
            assert dataset_fingerprint(reversed_ds) == dataset_fingerprint(
                dataset
            )
        else:
            assert dataset_fingerprint(reversed_ds) != dataset_fingerprint(
                dataset
            )

    def test_cross_process_stability(self):
        """The digest has no per-process state (no hash salting)."""
        dataset = uniform_dataset(
            64, seed=7, name="probe", space=scaled_space(128)
        )
        script = (
            "from repro.datagen import scaled_space, uniform_dataset\n"
            "from repro.service import dataset_fingerprint\n"
            "d = uniform_dataset(64, seed=7, name='probe', "
            "space=scaled_space(128))\n"
            "print(dataset_fingerprint(d))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == dataset_fingerprint(dataset)


class TestFingerprintMemo:
    def test_repeat_hashing_is_memoized_per_object(self, monkeypatch):
        """Immutable content is hashed once per object, then read off
        ``Dataset.fingerprint`` (what keeps concrete-Dataset submits
        cheap on repeat traffic)."""
        import repro.joins.base as base_module

        calls = []
        real = base_module.content_fingerprint
        monkeypatch.setattr(
            base_module,
            "content_fingerprint",
            lambda *arrays: calls.append(1) or real(*arrays),
        )
        dataset = uniform_dataset(64, seed=8, name="m", space=scaled_space(128))
        first = dataset_fingerprint(dataset)
        assert dataset.fingerprint == first
        assert dataset_fingerprint(dataset) == first
        assert len(calls) == 1
        assert vars(dataset)["fingerprint"] == first

    def test_memo_entry_dies_with_the_dataset(self):
        """The digest lives on the dataset: no module-level state keeps
        a fingerprinted dataset alive."""
        import gc
        import weakref

        dataset = uniform_dataset(16, seed=9, name="m", space=scaled_space(32))
        dataset_fingerprint(dataset)
        alive = weakref.ref(dataset)
        del dataset
        gc.collect()
        assert alive() is None


class TestFingerprintSensitivity:
    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.data())
    def test_any_element_perturbation_changes_fingerprint(self, dataset, data):
        n, ndim = len(dataset), dataset.ndim
        index = data.draw(st.integers(0, n - 1), label="element")
        axis = data.draw(st.integers(0, ndim - 1), label="axis")
        field = data.draw(st.sampled_from(["id", "lo", "hi"]), label="field")

        ids = np.array(dataset.ids, copy=True)
        lo = np.array(dataset.boxes.lo, copy=True)
        hi = np.array(dataset.boxes.hi, copy=True)
        if field == "id":
            ids[index] = int(ids.max()) + 1  # stays unique
        elif field == "lo":
            lo[index, axis] -= 1.0  # stays <= hi
        else:
            hi[index, axis] += 1.0  # stays >= lo
        perturbed = Dataset(dataset.name, ids, BoxArray(lo, hi))

        assert dataset_fingerprint(perturbed) != dataset_fingerprint(dataset)

    def test_shape_is_part_of_the_content(self):
        """Same byte stream, different (n, ndim) framing: distinct."""
        flat = np.arange(6, dtype=np.float64)
        d2 = Dataset(
            "x", np.arange(3), BoxArray(flat.reshape(3, 2), flat.reshape(3, 2))
        )
        d3 = Dataset(
            "x", np.arange(2), BoxArray(flat.reshape(2, 3), flat.reshape(2, 3))
        )
        assert dataset_fingerprint(d2) != dataset_fingerprint(d3)

    def test_rejects_non_datasets(self):
        with pytest.raises(TypeError):
            dataset_fingerprint("not a dataset")


class TestCatalogVersioning:
    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_reregistering_equal_content_keeps_version_and_object(
        self, dataset
    ):
        catalog = DatasetCatalog()
        first = catalog.register("d", dataset)
        again = catalog.register("d", rebuild(dataset))
        assert again.version == first.version == 1
        # The originally registered object is kept so identity-keyed
        # index caches stay hot.
        assert again.dataset is dataset

    @settings(max_examples=40, deadline=None)
    @given(datasets(), st.data())
    def test_reregistering_changed_content_bumps_version(self, dataset, data):
        catalog = DatasetCatalog()
        first = catalog.register("d", dataset)
        shift = data.draw(st.integers(1, 5), label="shift")
        changed = Dataset(
            dataset.name,
            dataset.ids,
            BoxArray(dataset.boxes.lo + shift, dataset.boxes.hi + shift),
        )
        second = catalog.register("d", changed)
        assert second.version == first.version + 1
        assert second.fingerprint != first.fingerprint
        assert catalog.resolve("d").dataset is changed


class TestRequestCacheKey:
    def test_key_ignores_object_identity_but_not_content(self):
        space = scaled_space(200)
        a = uniform_dataset(80, seed=1, name="A", space=space)
        b = uniform_dataset(80, seed=2, name="B", id_offset=10**9, space=space)
        fa, fb = dataset_fingerprint(a), dataset_fingerprint(b)
        key = request_cache_key(fa, fb, "transformers", space, None)
        assert key == request_cache_key(
            dataset_fingerprint(rebuild(a)),
            dataset_fingerprint(rebuild(b)),
            "TRANSFORMERS",  # names canonicalise case-insensitively
            space,
            None,
        )
        # Different algorithm, parameters or side order: different slot.
        assert key != request_cache_key(fa, fb, "pbsm", space, None)
        assert key != request_cache_key(fb, fa, "transformers", space, None)
        assert key != request_cache_key(
            fa, fb, "transformers", space, {"resolution": 8}
        )

    def test_parameter_order_is_canonical(self):
        key1 = request_cache_key("fa", "fb", "pbsm", None, {"x": 1, "y": 2})
        key2 = request_cache_key("fa", "fb", "pbsm", None, {"y": 2, "x": 1})
        assert key1 == key2

    def test_instance_algorithms_key_on_their_signature(self):
        from repro.core import TransformersConfig, TransformersJoin

        key1 = request_cache_key("fa", "fb", TransformersJoin(), None, None)
        key2 = request_cache_key("fa", "fb", TransformersJoin(), None, None)
        key3 = request_cache_key(
            "fa",
            "fb",
            TransformersJoin(TransformersConfig.overfit()),
            None,
            None,
        )
        assert key1 == key2
        assert key1 != key3

    def test_space_must_be_box_or_none(self):
        with pytest.raises(TypeError):
            request_cache_key("fa", "fb", "pbsm", space=(0, 1))
