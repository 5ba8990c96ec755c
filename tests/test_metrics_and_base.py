"""Tests for metrics primitives and the shared join interfaces."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.joins.base import (
    CostModel,
    Dataset,
    JoinStats,
    canonical_pairs,
)
from repro.geometry.boxes import BoxArray
from repro.storage.disk import DiskStats
from repro.storage.page import ElementPage


class TestCostModel:
    def test_cpu_cost(self):
        cm = CostModel(intersection_test_cost=0.01, metadata_test_cost=0.001)
        assert cm.cpu_cost(100, 1000) == pytest.approx(2.0)


class TestJoinStats:
    def test_absorb_io(self):
        js = JoinStats()
        js.absorb_io(
            DiskStats(
                pages_read=5, seq_reads=2, random_reads=3,
                pages_written=1, read_cost=32.0, write_cost=1.0,
            )
        )
        assert js.pages_read == 5
        assert js.io_cost == 33.0

    def test_total_cost(self):
        js = JoinStats(intersection_tests=100, io_cost=10.0)
        cm = CostModel(intersection_test_cost=0.01)
        assert js.total_cost(cm) == pytest.approx(11.0)

    def test_as_dict_includes_extras_and_costs(self):
        js = JoinStats(intersection_tests=10)
        js.extras["custom"] = 7.0
        d = js.as_dict(CostModel())
        assert d["custom"] == 7.0
        assert "total_cost" in d
        assert "cpu_cost" in d


class TestDataset:
    def _boxes(self, n):
        lo = np.zeros((n, 3))
        return BoxArray(lo, lo + 1.0)

    def test_valid(self):
        d = Dataset("d", np.arange(4), self._boxes(4))
        assert len(d) == 4
        assert d.ndim == 3

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Dataset("d", np.array([1, 1, 2]), self._boxes(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset("d", np.arange(3), self._boxes(4))

    def test_rejects_2d_ids(self):
        with pytest.raises(ValueError):
            Dataset("d", np.zeros((2, 2), dtype=np.int64), self._boxes(2))


class TestConstructorsLeaveTheCallersArrays:
    """``BoxArray``, ``ElementPage`` and ``Dataset`` keep read-only
    arrays of their own without freezing the arrays they were given."""

    def test_writeable_inputs_stay_writeable_and_are_not_aliased(self):
        ids, lo, hi = np.arange(3), np.zeros((3, 2)), np.ones((3, 2))
        boxes = BoxArray(lo, hi)
        built = (boxes.lo, boxes.hi, ElementPage(ids, boxes).ids,
                 Dataset("d", ids, boxes).ids)
        assert ids.flags.writeable and lo.flags.writeable and hi.flags.writeable
        assert not any(own.flags.writeable for own in built)
        ids[:], lo[:], hi[:] = 7, -1.0, 2.0
        assert [own.tolist() for own in built] == [
            [[0.0, 0.0]] * 3, [[1.0, 1.0]] * 3, [0, 1, 2], [0, 1, 2],
        ]

    def test_read_only_inputs_are_shared(self):
        ids, lo, hi = np.arange(3), np.zeros((3, 2)), np.ones((3, 2))
        for array in (ids, lo, hi):
            array.setflags(write=False)
        boxes = BoxArray(lo, hi)
        assert boxes.lo is lo and boxes.hi is hi
        assert ElementPage(ids, boxes).ids.base is ids
        assert Dataset("d", ids, boxes).ids is ids


@st.composite
def pair_arrays(draw):
    """``(m, 2)`` id pairs drawn from a few values per column (so rows
    repeat), at one of several id scales, as int64 or int32, contiguous
    or not."""
    scale = draw(st.sampled_from([4, 10**9, 2**61, 2**62, 2**63 - 1]))
    column = st.lists(st.integers(-scale, scale), min_size=1, max_size=5)
    a_values, b_values = draw(column), draw(column)
    m = draw(st.integers(0, 40))
    rows = [
        [draw(st.sampled_from(a_values)), draw(st.sampled_from(b_values))]
        for _ in range(m)
    ]
    pairs = np.array(rows, dtype=np.int64).reshape(m, 2)
    if scale < 2**31 and draw(st.booleans()):
        pairs = pairs.astype(np.int32)
    if draw(st.booleans()):
        pairs = np.repeat(pairs, 2, axis=1)[:, ::2]  # a strided view
    return pairs


class TestCanonicalPairs:
    def test_dedup_and_sort(self):
        raw = np.array([[3, 1], [1, 2], [3, 1], [1, 2]])
        got = canonical_pairs(raw)
        assert got.tolist() == [[1, 2], [3, 1]]

    def test_empty(self):
        assert canonical_pairs(np.empty((0, 2))).shape == (0, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            canonical_pairs(np.zeros((3, 3)))

    @staticmethod
    def assert_is_unique_rows(pairs):
        got = canonical_pairs(pairs)
        want = np.unique(np.asarray(pairs, np.int64), axis=0)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(pair_arrays())
    @example(np.empty((0, 2), dtype=np.int64))
    @example(np.array([[7, -3]]))
    @example(np.array([[5, 9]] * 6))
    @example(np.array([[-4, -1], [-4, -2], [-5, 0], [-4, -1]]))
    @example(np.array([[-(2**62), 2**62], [2**62, -(2**62)], [0, 0]] * 2))
    @example(np.array([[2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1]] * 2))
    @example(np.arange(24, dtype=np.int32).reshape(4, 6)[:, ::3])
    def test_equals_np_unique_rows(self, pairs):
        self.assert_is_unique_rows(pairs)

    @pytest.mark.parametrize(
        "pairs, sorts_rows",
        [
            (np.array([[2**31, 3], [0, 2**30], [2**31, 3]]), False),
            (np.array([[-(2**62), 1], [2**62, 0], [2**62, 0]]), True),
            (np.array([[0, 2**61], [1, -(2**61)], [1, -(2**61)]]), True),
        ],
    )
    def test_lexsort_only_when_the_key_could_overflow(
        self, monkeypatch, pairs, sorts_rows
    ):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
        )
        self.assert_is_unique_rows(pairs)
        assert bool(calls) == sorts_rows


def _dedupes_outside_canonical_pairs(path, root):
    """``np.unique(..., axis=...)`` calls in ``path`` outside
    ``joins/base.py``'s ``canonical_pairs`` and the brute-force oracle."""
    relative = path.relative_to(root).as_posix()
    if relative == "joins/brute.py":
        return []
    found = []
    tree = ast.parse(path.read_text())
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if relative == "joins/base.py" and func.name == "canonical_pairs":
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                and any(k.arg == "axis" for k in node.keywords)
            ):
                found.append(f"{relative}:{node.lineno} in {func.name}")
    return found


def test_no_row_unique_outside_canonical_pairs():
    """Every join and patch dedupes through ``canonical_pairs``."""
    root = Path(repro.__file__).parent
    offenders = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _dedupes_outside_canonical_pairs(path, root)
    ]
    assert offenders == []


class TestPercentiles:
    """Latency-percentile math: exact on samples, harmless on none."""

    def test_nearest_rank_values(self):
        from repro.metrics import percentile

        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 90) == 5.0
        assert percentile(values, 100) == 5.0
        assert percentile([7.5], 99) == 7.5

    def test_empty_sample_is_zero_not_an_error(self):
        from repro.metrics import latency_summary, percentile

        assert percentile([], 50) == 0.0
        summary = latency_summary([])
        assert summary == {
            "count": 0.0,
            "mean_s": 0.0,
            "p50_s": 0.0,
            "p90_s": 0.0,
            "p99_s": 0.0,
        }

    def test_rank_out_of_range_rejected(self):
        from repro.metrics import percentile

        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_summary_is_ordered(self):
        from repro.metrics import latency_summary

        summary = latency_summary([0.4, 0.1, 0.9, 0.2])
        assert summary["count"] == 4.0
        assert summary["mean_s"] == pytest.approx(0.4)
        assert summary["p50_s"] <= summary["p90_s"] <= summary["p99_s"]
