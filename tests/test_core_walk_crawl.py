"""Tests for the Adaptive Walk (Algorithm 1) and Adaptive Crawling."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crawl import adaptive_crawl, candidate_units
from repro.core.indexing import build_transformers_index
from repro.core.walk import adaptive_walk, node_distance, touch_node_meta
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset, JoinStats
from repro.storage.buffer import BufferPool

from tests.conftest import dataset_pair, make_disk


@pytest.fixture(scope="module")
def indexed():
    a, _ = dataset_pair("clustered", 2500, 10, seed=61)
    disk = make_disk()
    index, _ = build_transformers_index(disk, a)
    return a, disk, index


def query_box(index, lo, hi):
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


class TestWalk:
    def test_finds_intersecting_node_from_any_start(self, indexed):
        a, disk, index = indexed
        target = index.nodes.part_lo[0], index.nodes.part_hi[0]
        q_lo = (target[0] + target[1]) / 2 - 0.01
        q_hi = q_lo + 0.02
        for start in range(0, index.num_nodes, max(1, index.num_nodes // 7)):
            stats = JoinStats()
            found = adaptive_walk(
                index, start, q_lo, q_hi, stats, BufferPool(disk, 256)
            )
            assert found is not None
            assert node_distance(index, found, q_lo, q_hi) == 0.0
            assert stats.metadata_comparisons > 0

    def test_returns_none_outside_space(self, indexed):
        a, disk, index = indexed
        space = a.boxes.mbb()
        q_lo = np.asarray(space.hi) + 100.0
        q_hi = q_lo + 1.0
        stats = JoinStats()
        found = adaptive_walk(
            index, 0, q_lo, q_hi, stats, BufferPool(disk, 256)
        )
        assert found is None

    def test_walk_visits_strictly_closer_nodes(self, indexed):
        """The greedy descent must terminate without revisits; bounded
        metadata work for a single walk is the observable proxy."""
        a, disk, index = indexed
        q_lo = np.asarray(a.boxes.mbb().hi) - 0.5
        q_hi = q_lo + 0.2
        stats = JoinStats()
        adaptive_walk(index, 0, q_lo, q_hi, stats, BufferPool(disk, 256))
        # Worst case is one distance check per (node, neighbour) edge.
        total_edges = sum(len(ns) for ns in index.nodes.neighbors)
        assert stats.metadata_comparisons <= total_edges + index.num_nodes


class TestCrawl:
    def test_candidates_complete_vs_linear_scan(self, indexed):
        """The crawl must find every node whose MBB intersects the query
        — compared against a full scan of node MBBs."""
        a, disk, index = indexed
        rng = np.random.default_rng(5)
        space = a.boxes.mbb()
        for _ in range(10):
            center = rng.uniform(space.lo, space.hi)
            q_lo, q_hi = center - 1.5, center + 1.5
            g_lo = q_lo - index.node_slack
            g_hi = q_hi + index.node_slack
            stats = JoinStats()
            pool = BufferPool(disk, 256)
            start = adaptive_walk(index, 0, g_lo, g_hi, stats, pool)
            expected = set(
                np.nonzero(
                    np.all(
                        (index.nodes.mbb_lo <= q_hi)
                        & (index.nodes.mbb_hi >= q_lo),
                        axis=1,
                    )
                )[0].tolist()
            )
            if start is None:
                assert expected == set()
                continue
            got = set(
                adaptive_crawl(
                    index, start, q_lo, q_hi, g_lo, g_hi, stats, pool
                )
            )
            assert got == expected

    def test_skip_excludes_but_does_not_disconnect(self, indexed):
        """Skipped (checked) nodes are not candidates but the crawl must
        still expand through them to reach nodes beyond."""
        a, disk, index = indexed
        space = a.boxes.mbb()
        center = (np.asarray(space.lo) + np.asarray(space.hi)) / 2
        q_lo, q_hi = center - 3.0, center + 3.0
        g_lo = q_lo - index.node_slack
        g_hi = q_hi + index.node_slack
        pool = BufferPool(disk, 256)
        stats = JoinStats()
        start = adaptive_walk(index, 0, g_lo, g_hi, stats, pool)
        assert start is not None
        full = set(
            adaptive_crawl(index, start, q_lo, q_hi, g_lo, g_hi, stats, pool)
        )
        if len(full) < 3:
            pytest.skip("need a multi-node candidate set for this check")
        # Skip one *interior* candidate (not the start).
        skipped = next(iter(full - {start}))
        got = set(
            adaptive_crawl(
                index, start, q_lo, q_hi, g_lo, g_hi, stats, pool,
                skip={skipped},
            )
        )
        assert got == full - {skipped}


class TestCandidateUnits:
    def test_filters_by_page_mbb(self, indexed):
        a, disk, index = indexed
        stats = JoinStats()
        pool = BufferPool(disk, 256)
        nodes = list(range(index.num_nodes))
        space = a.boxes.mbb()
        center = (np.asarray(space.lo) + np.asarray(space.hi)) / 2
        q_lo, q_hi = center - 2.0, center + 2.0
        got = set(
            candidate_units(index, nodes, q_lo, q_hi, stats, pool).tolist()
        )
        expected = set(
            np.nonzero(
                np.all(
                    (index.units.page_lo <= q_hi)
                    & (index.units.page_hi >= q_lo),
                    axis=1,
                )
            )[0].tolist()
        )
        assert got == expected
        assert stats.metadata_comparisons >= index.num_units


# ----------------------------------------------------------------------
# The per-candidate loops the batched crawl replaced, kept here as the
# reference: one ``np.all`` per visited node and per tested neighbour,
# one filter per candidate node.  The production code must return the
# same lists in the same order, count the same metadata comparisons and
# read the same pages in the same sequence.
# ----------------------------------------------------------------------
def crawl_per_candidate(
    index, start, e_lo, e_hi, g_lo, g_hi, stats, pool, skip=frozenset()
):
    candidates = []
    seen = {int(start)}
    queue = [int(start)]
    while queue:
        node = queue.pop()
        touch_node_meta(index, node, pool)
        stats.metadata_comparisons += 1
        if node not in skip and np.all(
            index.nodes.mbb_lo[node] <= e_hi
        ) and np.all(index.nodes.mbb_hi[node] >= e_lo):
            candidates.append(node)
        for nb in index.nodes.neighbors[node]:
            nb = int(nb)
            if nb in seen:
                continue
            stats.metadata_comparisons += 1
            if np.all(index.nodes.part_lo[nb] <= g_hi) and np.all(
                index.nodes.part_hi[nb] >= g_lo
            ):
                seen.add(nb)
                queue.append(nb)
    return candidates


def candidate_units_per_node(index, nodes, q_lo, q_hi, stats, pool):
    out = []
    for node in nodes:
        pool.read(int(index.nodes.desc_page_ids[node]))
        members = index.nodes.units[node]
        stats.metadata_comparisons += len(members)
        hit = np.all(
            (index.units.page_lo[members] <= q_hi)
            & (index.units.page_hi[members] >= q_lo),
            axis=1,
        )
        if hit.any():
            out.append(members[hit])
    if not out:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(out)


class RecordingPool(BufferPool):
    """A buffer pool that remembers the page ids it was asked for."""

    __slots__ = ("asked",)

    def __init__(self, disk, capacity):
        super().__init__(disk, capacity)
        self.asked = []

    def read(self, page_id):
        self.asked.append(page_id)
        return super().read(page_id)


@functools.lru_cache(maxsize=None)
def random_index(kind, n, ndim, seed):
    a, _ = dataset_pair(kind, n, 10, seed=seed)
    if ndim == 2:
        boxes = BoxArray(a.boxes.lo[:, :2], a.boxes.hi[:, :2])
        a = Dataset(a.name, a.ids, boxes)
    disk = make_disk()
    index, _ = build_transformers_index(disk, a)
    return disk, index


indexes = st.builds(
    random_index,
    st.sampled_from(["uniform", "clustered", "massive"]),
    st.sampled_from([40, 700, 2500]),
    st.sampled_from([2, 3]),
    st.integers(0, 2),
)


def pivot(index, data):
    """A random box somewhere in (or just outside) the indexed space."""
    ndim = index.units.page_lo.shape[1]
    unit = st.floats(-0.1, 1.1, allow_nan=False)
    lo = np.asarray(index.space.lo)
    side = np.asarray(index.space.hi) - lo
    center = lo + side * np.array([data.draw(unit) for _ in range(ndim)])
    half = side * data.draw(st.floats(0.0, 0.4, allow_nan=False))
    return center - half, center + half


def observed(fn, disk, *args):
    stats = JoinStats()
    pool = RecordingPool(disk, 4)
    result = fn(*args, stats, pool)
    return list(result), stats.metadata_comparisons, pool.asked


class TestBatchedEqualsPerCandidate:
    @settings(max_examples=150, deadline=None)
    @given(indexes, st.data())
    def test_adaptive_crawl(self, built, data):
        disk, index = built
        e_lo, e_hi = pivot(index, data)
        g_lo, g_hi = e_lo - index.node_slack, e_hi + index.node_slack
        start = data.draw(st.integers(0, index.num_nodes - 1))
        skip = data.draw(st.sets(st.integers(0, index.num_nodes - 1)))
        args = (index, start, e_lo, e_hi, g_lo, g_hi)

        def with_skip(fn):
            return lambda *a: fn(*a, skip)

        assert observed(with_skip(adaptive_crawl), disk, *args) == observed(
            with_skip(crawl_per_candidate), disk, *args
        )

    @settings(max_examples=150, deadline=None)
    @given(indexes, st.data())
    def test_candidate_units(self, built, data):
        disk, index = built
        q_lo, q_hi = pivot(index, data)
        nodes = data.draw(
            st.lists(st.integers(0, index.num_nodes - 1), unique=True)
        )
        args = (index, nodes, q_lo, q_hi)
        got = candidate_units(*args, JoinStats(), BufferPool(disk, 4))
        assert got.dtype == np.intp
        assert observed(candidate_units, disk, *args) == observed(
            candidate_units_per_node, disk, *args
        )
