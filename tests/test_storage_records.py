"""Tests for the fixed-size record codec and page payloads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.boxes import BoxArray
from repro.storage.page import ElementPage, element_page_capacity
from repro.storage.records import RecordCodec


class TestCodecBasics:
    def test_record_size_3d(self):
        assert RecordCodec(3).record_size == 56

    def test_record_size_general(self):
        for d in (1, 2, 4):
            assert RecordCodec(d).record_size == 8 + 16 * d

    def test_capacity_8k(self):
        assert RecordCodec(3).capacity(8192) == 146

    def test_capacity_rejects_too_small_page(self):
        with pytest.raises(ValueError):
            RecordCodec(3).capacity(40)

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            RecordCodec(0)

    def test_encode_length_mismatch(self):
        codec = RecordCodec(2)
        boxes = BoxArray(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            codec.encode(np.array([1]), boxes)

    def test_encode_dim_mismatch(self):
        codec = RecordCodec(3)
        boxes = BoxArray(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            codec.encode(np.array([1]), boxes)

    def test_decode_bad_length(self):
        with pytest.raises(ValueError):
            RecordCodec(3).decode(b"\x00" * 55)

    def test_decode_empty(self):
        ids, boxes = RecordCodec(3).decode(b"")
        assert len(ids) == 0
        assert boxes.ndim == 3


class TestRoundtrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**31))
    def test_roundtrip(self, ndim, n, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1e6, 1e6, size=(n, ndim))
        hi = lo + rng.uniform(0, 1e3, size=(n, ndim))
        ids = rng.integers(-(2**62), 2**62, size=n)
        codec = RecordCodec(ndim)
        data = codec.encode(ids, BoxArray(lo, hi))
        assert len(data) == n * codec.record_size
        got_ids, got_boxes = codec.decode(data)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_boxes.lo, lo)
        assert np.array_equal(got_boxes.hi, hi)


class TestElementPage:
    def _page(self, n=5, ndim=3, seed=0):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 10, size=(n, ndim))
        return ElementPage(
            np.arange(n), BoxArray(lo, lo + rng.uniform(0, 1, size=(n, ndim)))
        )

    def test_len(self):
        assert len(self._page(7)) == 7

    def test_rejects_length_mismatch(self):
        boxes = BoxArray(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            ElementPage(np.array([1, 2, 3]), boxes)

    def test_rejects_2d_ids(self):
        boxes = BoxArray(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            ElementPage(np.zeros((2, 1), dtype=np.int64), boxes)

    def test_immutable(self):
        page = self._page()
        with pytest.raises(AttributeError):
            page.ids = np.array([1])
        with pytest.raises(ValueError):
            page.ids[0] = 99

    def test_bytes_roundtrip(self):
        page = self._page(9, seed=3)
        back = ElementPage.from_bytes(page.to_bytes(), ndim=3)
        assert np.array_equal(back.ids, page.ids)
        assert np.array_equal(back.boxes.lo, page.boxes.lo)

    def test_split_hands_out_views_of_one_validated_run(self):
        run = self._page(9, seed=4)
        pages = ElementPage.split(run.ids, run.boxes, [0, 4, 9])
        assert [len(p) for p in pages] == [4, 5]
        for page, start in zip(pages, (0, 4)):
            assert isinstance(page, ElementPage)
            assert np.shares_memory(page.ids, run.ids)
            assert np.shares_memory(page.boxes.lo, run.boxes.lo)
            assert not page.ids.flags.writeable
            assert not page.boxes.hi.flags.writeable
            assert page.ids[0] == run.ids[start]
            assert page.boxes.box(0) == run.boxes.box(start)
            assert page.to_bytes() == ElementPage(
                run.ids[start : start + len(page)],
                run.boxes.take(range(start, start + len(page))),
            ).to_bytes()
        with pytest.raises(AttributeError):
            pages[0].ids = run.ids

    def test_split_page_pickles(self):
        import pickle

        run = self._page(6, seed=5)
        page = ElementPage.split(run.ids, run.boxes, [2, 5])[0]
        back = pickle.loads(pickle.dumps(page))
        assert np.array_equal(back.ids, run.ids[2:5])
        assert np.array_equal(back.boxes.lo, run.boxes.lo[2:5])

    def test_split_validates_the_whole_run(self):
        run = self._page(6, seed=6)
        with pytest.raises(ValueError, match="6 ids but 5 boxes"):
            ElementPage.split(run.ids, run.boxes.take(range(5)), [0, 5])
        with pytest.raises(ValueError):
            ElementPage.split(run.ids.reshape(2, 3), run.boxes, [0, 6])
        for offsets in ([0, 4, 2], [0, 7], [-2, 6]):
            with pytest.raises(ValueError):
                ElementPage.split(run.ids, run.boxes, offsets)
        # A box with lo > hi anywhere in the run never becomes a page:
        # the run itself cannot be built.
        lo, hi = run.boxes.lo.copy(), run.boxes.hi.copy()
        lo[5, 1] = hi[5, 1] + 1.0
        with pytest.raises(ValueError, match="lo must not exceed hi"):
            ElementPage.split(run.ids, BoxArray(lo, hi), [0, 3, 6])

    def test_capacity_consistent_with_codec(self):
        # The page capacity used by all partitioners must equal what the
        # byte-level record layout permits.
        for page_size in (1024, 4096, 8192):
            for ndim in (2, 3):
                assert (
                    element_page_capacity(page_size, ndim)
                    == RecordCodec(ndim).capacity(page_size)
                )

    def test_full_page_fits_in_page_size(self):
        page_size = 1024
        capacity = element_page_capacity(page_size, 3)
        rng = np.random.default_rng(1)
        lo = rng.uniform(0, 10, size=(capacity, 3))
        page = ElementPage(
            np.arange(capacity), BoxArray(lo, lo + 1.0)
        )
        assert len(page.to_bytes()) <= page_size


def _run(n, seed, ndim=3, first_id=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 10, size=(n, ndim))
    return ElementPage(
        np.arange(first_id, first_id + n),
        BoxArray(lo, lo + rng.uniform(0, 1, size=(n, ndim))),
    )


def _pages(run, per):
    return ElementPage.split(
        run.ids, run.boxes, [*range(0, len(run), per), len(run)]
    )


def _concatenated(pages):
    """What ``gather`` replaces: the rows re-assembled from the views."""
    return (
        np.concatenate([page.ids for page in pages]),
        np.concatenate([page.boxes.lo for page in pages]),
        np.concatenate([page.boxes.hi for page in pages]),
    )


class TestWindows:
    """A page is a window ``(run ids, run boxes, start, stop)``."""

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 12)), min_size=1, max_size=30),
        per=st.integers(1, 7),
    )
    def test_gather_equals_the_concatenate_of_the_views(self, picks, per):
        """Shuffled, repeated and mixed-run page lists (a role switch
        changes the run mid-queue), empty windows included."""
        runs = [_pages(_run(40, 1), per), _pages(_run(33, 2, first_id=100), per)]
        for pages in runs:
            pages.append(ElementPage.split(pages[0].ids, pages[0].boxes, [1, 1])[0])
        pages = [runs[r][k % len(runs[r])] for r, k in picks]
        ids, boxes = ElementPage.gather(pages)
        want_ids, want_lo, want_hi = _concatenated(pages)
        assert ids.dtype == np.int64 and ids.tobytes() == want_ids.tobytes()
        assert boxes.lo.tobytes() == want_lo.tobytes()
        assert boxes.hi.tobytes() == want_hi.tobytes()
        assert boxes.lo.shape == want_lo.shape and isinstance(boxes, BoxArray)
        for taken in (ids, boxes.lo, boxes.hi):
            assert not taken.flags.writeable and taken.flags.c_contiguous

    def test_gather_of_nothing_is_refused_and_of_empty_windows_is_empty(self):
        with pytest.raises(ValueError, match="at least one page"):
            ElementPage.gather([])
        run = _run(6, 3)
        ids, boxes = ElementPage.gather(ElementPage.split(run.ids, run.boxes, [2, 2, 2]))
        assert len(ids) == 0 and boxes.lo.shape == (0, 3)

    def test_gather_refuses_mixed_dimensionalities(self):
        with pytest.raises(ValueError):
            ElementPage.gather([_run(4, 1), _run(4, 2, ndim=2)])

    def test_element_ranges_are_the_one_row_split(self):
        """Any selection of a window's elements, repeats and reordering
        included, gathers to the rows of the one-row split's pages."""
        run = _run(23, 7)
        for page in [run, *_pages(run, 5)]:
            one_row = ElementPage.split(page.ids, page.boxes, range(len(page) + 1))
            for rows in (np.arange(len(page)), np.array([len(page) - 1, 0, 0, 2])):
                got = ElementPage.gather_ranges([page.element_ranges(rows)])
                want = ElementPage.gather([one_row[r] for r in rows.tolist()])
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].lo.tobytes() == want[1].lo.tobytes()
                assert got[1].hi.tobytes() == want[1].hi.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 12)), min_size=1, max_size=30),
        per=st.integers(1, 7),
    )
    def test_gather_ranges_of_row_ranges_is_gather(self, picks, per):
        """A queue of row-range batches (mixed runs, split at arbitrary
        points) gathers to the pages' rows in order."""
        runs = [_pages(_run(40, 1), per), _pages(_run(33, 2, first_id=100), per)]
        pages = [runs[r][k % len(runs[r])] for r, k in picks]
        cut = len(pages) // 2
        ranges = ElementPage.row_ranges(pages[:cut]) + ElementPage.row_ranges(pages[cut:])
        got, want = ElementPage.gather_ranges(ranges), ElementPage.gather(pages)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].lo.tobytes() == want[1].lo.tobytes()
        assert got[1].hi.tobytes() == want[1].hi.tobytes()

    def test_a_window_pickles_its_own_rows_only(self):
        import pickle

        run = _run(12_000, 11)
        page = _pages(run, 17)[300]
        data = pickle.dumps(page)
        assert len(data) < 2_000 < len(pickle.dumps(run))
        back = pickle.loads(data)
        assert len(back) == 17 and back.to_bytes() == page.to_bytes()
        assert np.array_equal(back.boxes.hi, run.boxes.hi[300 * 17 : 301 * 17])
        ids, boxes = ElementPage.gather([back, page])
        assert np.array_equal(ids, np.tile(page.ids, 2))
        assert np.array_equal(boxes.lo, np.tile(page.boxes.lo, (2, 1)))

    def test_whole_run_window_hands_back_its_arrays(self):
        run = _run(9, 13)
        assert run.boxes is run.boxes and len(run.ids) == 9
        page = _pages(run, 4)[1]
        assert np.shares_memory(page.boxes.lo, run.boxes.lo)
        assert page.boxes.lo.tolist() == run.boxes.lo[4:8].tolist()
        with pytest.raises(AttributeError):
            page._start = 0
