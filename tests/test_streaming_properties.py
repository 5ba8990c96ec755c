"""Property tests for :mod:`repro.streaming`.

The streaming tier's whole value proposition is *exactness*: applying
a delta incrementally must be indistinguishable — bit for bit — from
rebuilding from scratch.  Hypothesis drives that equivalence over
randomly shaped datasets and deltas:

* :meth:`MutableDataset.materialize` replays the delta log into the
  same arrays (and therefore the same content fingerprint) as applying
  the deltas eagerly;
* :meth:`DatasetSketch.apply_delta` equals ``DatasetSketch.build`` on
  the post-delta dataset (``==`` and digest);
* :func:`repro.joins.delta_join` patches a cached pair set into
  exactly the brute-force recompute of the post-delta join.

Integer-valued coordinates keep every arithmetic comparison exact, so
"equal" genuinely means byte-identical, not approximately so.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.boxes import BoxArray
from repro.joins import delta_join
from repro.joins.base import Dataset
from repro.joins.brute import brute_force_pairs
from repro.service.fingerprint import dataset_fingerprint
from repro.stats import DatasetSketch
from repro.streaming import DatasetDelta, MutableDataset

#: Fresh insert ids start here — far above any generated base id, so
#: insertions never collide with survivors.
_INSERT_BASE = 10_000


def _boxes(draw, n, ndim):
    coords = st.integers(-200, 200)
    lo = np.asarray(
        draw(st.lists(coords, min_size=n * ndim, max_size=n * ndim)),
        dtype=np.float64,
    ).reshape(n, ndim)
    extent = np.asarray(
        draw(
            st.lists(
                st.integers(0, 40), min_size=n * ndim, max_size=n * ndim
            )
        ),
        dtype=np.float64,
    ).reshape(n, ndim)
    return BoxArray(lo, lo + extent)


@st.composite
def dataset_and_delta(draw, min_n=1, max_n=48):
    """A random dataset plus a valid delta against it."""
    ndim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_n, max_n))
    ids = np.arange(n, dtype=np.int64)
    base = Dataset("base", ids, _boxes(draw, n, ndim))
    n_del = draw(st.integers(0, n))
    delete = draw(
        st.permutations(list(range(n))).map(lambda p: p[:n_del])
    )
    n_ins = draw(st.integers(0, 16))
    insert_ids = np.arange(
        _INSERT_BASE, _INSERT_BASE + n_ins, dtype=np.int64
    )
    delta = DatasetDelta(
        delete_ids=np.asarray(sorted(delete), dtype=np.int64),
        insert_ids=insert_ids,
        insert_boxes=_boxes(draw, n_ins, ndim),
    )
    return base, delta


class TestMutableDataset:
    @settings(max_examples=60, deadline=None)
    @given(dataset_and_delta())
    def test_materialize_replays_to_identical_content(self, case):
        base, delta = case
        mutable = MutableDataset(base)
        current = mutable.apply(delta)
        replayed = mutable.materialize()
        assert np.array_equal(replayed.ids, current.ids)
        assert replayed.boxes.lo.tobytes() == current.boxes.lo.tobytes()
        assert replayed.boxes.hi.tobytes() == current.boxes.hi.tobytes()
        assert dataset_fingerprint(replayed) == dataset_fingerprint(
            current
        )

    @settings(max_examples=60, deadline=None)
    @given(dataset_and_delta())
    def test_fingerprint_equals_cold_registration(self, case):
        base, delta = case
        mutable = MutableDataset(base)
        mutable.apply(delta)
        cold = delta.apply(base)
        assert mutable.content_fingerprint() == dataset_fingerprint(cold)

    @settings(max_examples=40, deadline=None)
    @given(dataset_and_delta())
    def test_lineage_fingerprint_is_deterministic(self, case):
        base, delta = case
        one = MutableDataset(base)
        two = MutableDataset(base)
        one.apply(delta)
        two.apply(delta)
        assert one.lineage_fingerprint() == two.lineage_fingerprint()


class TestSketchMaintenance:
    @settings(max_examples=80, deadline=None)
    @given(dataset_and_delta())
    def test_apply_delta_equals_rebuild(self, case):
        base, delta = case
        after = delta.apply(base)
        incremental = DatasetSketch.build(base).apply_delta(
            delta, base, after
        )
        rebuilt = DatasetSketch.build(after)
        assert incremental == rebuilt
        assert incremental.digest() == rebuilt.digest()


@st.composite
def join_case(draw):
    """Two disjoint-id datasets plus independent deltas on each side."""
    base_a, delta_a = draw(dataset_and_delta(max_n=32))
    n_b = draw(st.integers(1, 32))
    ids_b = np.arange(
        5 * _INSERT_BASE, 5 * _INSERT_BASE + n_b, dtype=np.int64
    )
    base_b = Dataset("other", ids_b, _boxes(draw, n_b, base_a.boxes.ndim))
    n_del = draw(st.integers(0, n_b))
    delete_b = ids_b[: n_del]
    n_ins = draw(st.integers(0, 12))
    ins_b = np.arange(
        9 * _INSERT_BASE, 9 * _INSERT_BASE + n_ins, dtype=np.int64
    )
    delta_b = DatasetDelta(
        delete_ids=np.asarray(delete_b, dtype=np.int64),
        insert_ids=ins_b,
        insert_boxes=_boxes(draw, n_ins, base_a.boxes.ndim),
    )
    which = draw(st.sampled_from(["a", "b", "both"]))
    return base_a, base_b, delta_a, delta_b, which


class TestDeltaJoin:
    @settings(max_examples=80, deadline=None)
    @given(join_case())
    def test_patch_equals_full_recompute(self, case):
        base_a, base_b, delta_a, delta_b, which = case
        cached = brute_force_pairs(base_a, base_b)
        use_a = delta_a if which in ("a", "both") else None
        use_b = delta_b if which in ("b", "both") else None
        after_a = use_a.apply(base_a) if use_a is not None else base_a
        after_b = use_b.apply(base_b) if use_b is not None else base_b
        patched, _tests = delta_join(
            cached, base_a, base_b, delta_a=use_a, delta_b=use_b
        )
        recomputed = brute_force_pairs(after_a, after_b)
        assert patched.tobytes() == recomputed.tobytes()
        assert patched.shape == recomputed.shape
