"""Property tests for :class:`repro.stats.DatasetSketch`.

The planner's correctness rests on the sketch contract: a sketch is a
*pure function of dataset content* (equal content ⇒ bit-identical
sketch in any process, across pickle round-trips), its counts conserve
the cardinality exactly, its quadtree refinement conserves each
parent's count, and the empty dataset yields a valid no-op.  Hypothesis
drives the conservation and determinism properties over randomly
shaped datasets; the process-boundary property runs a real
subprocess (mirroring ``tests/test_service_fingerprint.py``).
"""

import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import (
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_dataset,
)
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset
from repro.stats import DatasetSketch, build_sketch


@st.composite
def datasets(draw, min_n=1, max_n=64):
    """A small random dataset with integer-valued (exact) coordinates."""
    ndim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_n, max_n))
    ids = np.arange(n, dtype=np.int64)
    coords = st.integers(-1000, 1000)
    lo = np.asarray(
        draw(st.lists(coords, min_size=n * ndim, max_size=n * ndim)),
        dtype=np.float64,
    ).reshape(n, ndim)
    extent = np.asarray(
        draw(
            st.lists(
                st.integers(0, 50), min_size=n * ndim, max_size=n * ndim
            )
        ),
        dtype=np.float64,
    ).reshape(n, ndim)
    return Dataset("probe", ids, BoxArray(lo, lo + extent))


def _empty(ndim=3):
    return Dataset("empty", np.empty(0, dtype=np.int64), BoxArray.empty(ndim))


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_cell_counts_sum_to_cardinality(self, dataset):
        sketch = build_sketch(dataset)
        assert int(sketch.counts.sum()) == len(dataset)

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_refined_children_conserve_parent_counts(self, dataset):
        """Each heavy cell's quadtree children sum to the parent count."""
        sketch = build_sketch(dataset)
        for flat, children in zip(
            sketch.refined_cells, sketch.refined_counts
        ):
            assert int(children.sum()) == int(sketch.counts[flat])

    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_fine_counts_conserve_mass(self, dataset):
        """The doubled grid the estimator reads holds every element."""
        assert float(build_sketch(dataset).fine_counts().sum()) == len(
            dataset
        )

    def test_heavy_cells_get_refined_on_massive_cluster(self):
        """The distribution family the refinement exists for."""
        dataset = massive_cluster(
            2000, seed=5, name="m", space=scaled_space(2000)
        )
        sketch = build_sketch(dataset)
        assert len(sketch.refined_cells) > 0

    def test_mbb_and_extents_match_boxes(self):
        dataset = dense_cluster(300, seed=3, name="d", space=scaled_space(300))
        sketch = build_sketch(dataset)
        assert np.allclose(sketch.lo, dataset.boxes.lo.min(axis=0))
        assert np.allclose(sketch.hi, dataset.boxes.hi.max(axis=0))
        assert np.allclose(
            sketch.avg_extent,
            (dataset.boxes.hi - dataset.boxes.lo).mean(axis=0),
        )


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_rebuild_from_equal_content_is_identical(self, dataset):
        """Fresh arrays, different name — same sketch."""
        clone = Dataset(
            "other",
            np.array(dataset.ids, copy=True),
            BoxArray(
                np.array(dataset.boxes.lo, copy=True),
                np.array(dataset.boxes.hi, copy=True),
            ),
        )
        s1, s2 = build_sketch(dataset), build_sketch(clone)
        assert s1 == s2

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_pickle_round_trip_is_identical(self, dataset):
        sketch = build_sketch(dataset)
        restored = pickle.loads(pickle.dumps(sketch))
        assert restored == sketch

    def test_perturbing_one_coordinate_changes_the_sketch(self):
        dataset = uniform_dataset(
            100, seed=9, name="p", space=scaled_space(200)
        )
        lo = np.array(dataset.boxes.lo, copy=True)
        lo[17, 0] += 3.0  # move one element far enough to change a cell
        perturbed = Dataset(
            "p", dataset.ids, BoxArray(lo, np.maximum(lo, dataset.boxes.hi))
        )
        assert build_sketch(perturbed) != build_sketch(dataset)

    def test_cross_process_stability(self):
        """Sketch building has no per-process state (no hash salting)."""
        dataset = uniform_dataset(
            128, seed=11, name="probe", space=scaled_space(256)
        )
        script = (
            "import pickle\n"
            "from repro.datagen import scaled_space, uniform_dataset\n"
            "from repro.stats import build_sketch\n"
            "d = uniform_dataset(128, seed=11, name='probe', "
            "space=scaled_space(256))\n"
            "print(pickle.dumps(build_sketch(d)).hex())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "4242"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        restored = pickle.loads(bytes.fromhex(proc.stdout.strip()))
        assert restored == build_sketch(dataset)


class TestEmptyAndDegenerate:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_empty_dataset_yields_valid_noop(self, ndim):
        sketch = build_sketch(_empty(ndim))
        assert sketch.is_empty
        assert sketch.n == 0
        assert sketch.ndim == ndim
        assert int(sketch.counts.sum()) == 0
        assert len(sketch.refined_cells) == 0
        # The no-op sketch still round-trips.
        assert pickle.loads(pickle.dumps(sketch)) == sketch

    def test_single_element(self):
        dataset = Dataset(
            "one",
            np.array([7]),
            BoxArray(np.zeros((1, 3)), np.ones((1, 3))),
        )
        sketch = build_sketch(dataset)
        assert sketch.n == 1
        assert int(sketch.counts.sum()) == 1

    def test_coincident_points_all_land_in_one_cell(self):
        """Zero-extent, zero-spread input must not divide by zero."""
        pts = np.tile(np.array([[5.0, 5.0, 5.0]]), (20, 1))
        dataset = Dataset("pts", np.arange(20), BoxArray(pts, pts))
        sketch = build_sketch(dataset)
        assert int(sketch.counts.sum()) == 20
        assert int(sketch.counts.max()) == 20

    def test_sketch_arrays_are_write_protected(self):
        sketch = build_sketch(
            uniform_dataset(50, seed=1, name="w", space=scaled_space(100))
        )
        with pytest.raises(ValueError):
            sketch.counts[0] = 99


class TestResolution:
    def test_resolution_override(self):
        dataset = uniform_dataset(
            500, seed=2, name="r", space=scaled_space(1000)
        )
        sketch = DatasetSketch.build(dataset, resolution=4)
        assert sketch.resolution == 4
        assert sketch.counts.shape == (4**3,)

    def test_default_resolution_is_bounded(self):
        big = uniform_dataset(
            20_000, seed=3, name="big", space=scaled_space(40_000)
        )
        assert build_sketch(big).resolution <= 16
        small = uniform_dataset(4, seed=4, name="small", space=scaled_space(8))
        assert build_sketch(small).resolution >= 2
