"""Tests for the Adaptive Walk (Algorithm 1) and Adaptive Crawling."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransformersJoin
from repro.core import join as core_join
from repro.core.crawl import adaptive_crawl, candidate_units, crawl_masks
from repro.core.indexing import build_transformers_index
from repro.core.walk import adaptive_walk, partition_distances, touch_node_meta
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset, JoinStats
from repro.storage.buffer import BufferPool
from repro.vectorize import boxes_overlap

from tests import test_core_counters_golden as golden
from tests.conftest import dataset_pair, make_disk


@pytest.fixture(scope="module")
def indexed():
    a, _ = dataset_pair("clustered", 2500, 10, seed=61)
    disk = make_disk()
    index, _ = build_transformers_index(disk, a)
    return a, disk, index


def walk(index, start, q_lo, q_hi, stats, pool):
    """:func:`adaptive_walk` towards one box, its distance row built the
    way a range query builds it."""
    distance = partition_distances(index, q_lo, q_hi).tolist()
    return adaptive_walk(index, start, distance, stats, pool)


def crawl(index, start, e_lo, e_hi, g_lo, g_hi, stats, pool, skip=frozenset()):
    """:func:`adaptive_crawl` around one pivot box, likewise."""
    include, expand = crawl_masks(index, e_lo, e_hi, g_lo, g_hi)
    return adaptive_crawl(
        index, start, include.tolist(), expand.tolist(), stats, pool, skip
    )


class TestWalk:
    def test_finds_intersecting_node_from_any_start(self, indexed):
        a, disk, index = indexed
        target = index.nodes.part_lo[0], index.nodes.part_hi[0]
        q_lo = (target[0] + target[1]) / 2 - 0.01
        q_hi = q_lo + 0.02
        for start in range(0, index.num_nodes, max(1, index.num_nodes // 7)):
            stats = JoinStats()
            found = walk(
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
        found = walk(
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
        walk(index, 0, q_lo, q_hi, stats, BufferPool(disk, 256))
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
            start = walk(index, 0, g_lo, g_hi, stats, pool)
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
                crawl(index, start, q_lo, q_hi, g_lo, g_hi, stats, pool)
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
        start = walk(index, 0, g_lo, g_hi, stats, pool)
        assert start is not None
        full = set(crawl(index, start, q_lo, q_hi, g_lo, g_hi, stats, pool))
        if len(full) < 3:
            pytest.skip("need a multi-node candidate set for this check")
        # Skip one *interior* candidate (not the start).
        skipped = next(iter(full - {start}))
        got = set(
            crawl(
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
# The per-pivot, per-candidate loops the tables replaced, kept here as
# the reference: one distance per tested neighbour, one ``np.all`` per
# visited node and per tested neighbour, one filter per candidate node.
# The production code must return the same nodes in the same order,
# count the same metadata comparisons and read the same pages in the
# same sequence.
# ----------------------------------------------------------------------
def node_distance(index, node, q_lo, q_hi):
    """Euclidean gap between a node's partition MBB and a query box."""
    below = np.maximum(q_lo - index.nodes.part_hi[node], 0.0)
    above = np.maximum(index.nodes.part_lo[node] - q_hi, 0.0)
    gap = np.maximum(below, above)
    return float(np.sqrt(np.sum(gap * gap)))


def walk_per_pivot(index, start, q_lo, q_hi, stats, pool):
    if index.num_nodes == 0:
        return None
    current = int(start)
    touch_node_meta(index, current, pool)
    stats.metadata_comparisons += 1
    current_dist = node_distance(index, current, q_lo, q_hi)
    while current_dist > 0.0:
        best = -1
        best_dist = current_dist
        for nb in index.nodes.neighbors[current]:
            stats.metadata_comparisons += 1
            d = node_distance(index, int(nb), q_lo, q_hi)
            if d < best_dist:
                best = int(nb)
                best_dist = d
        if best < 0:
            return None
        touch_node_meta(index, best, pool)
        current = best
        current_dist = best_dist
    return current


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


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestBatchedEqualsPerCandidate:
    @settings(max_examples=150, deadline=None)
    @given(indexes, st.data())
    def test_adaptive_walk(self, built, data):
        disk, index = built
        e_lo, e_hi = pivot(index, data)
        g_lo, g_hi = e_lo - index.node_slack, e_hi + index.node_slack
        start = data.draw(st.integers(0, index.num_nodes - 1))
        args = (index, start, g_lo, g_hi)

        def as_list(fn):
            return lambda *a: [fn(*a)]

        assert observed(as_list(walk), disk, *args) == observed(
            as_list(walk_per_pivot), disk, *args
        )

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

        assert observed(with_skip(crawl), disk, *args) == observed(
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


class TestTablesEqualPerPivot:
    """A stack of pivots gets one table row each, equal to what the
    per-pivot tests compute for that pivot alone."""

    @settings(max_examples=60, deadline=None)
    @given(indexes, st.data())
    def test_rows_equal_the_per_pivot_values(self, built, data):
        _, index = built
        lo, hi = zip(*(pivot(index, data) for _ in range(data.draw(st.integers(1, 6)))))
        e_lo, e_hi = np.array(lo), np.array(hi)
        g_lo, g_hi = e_lo - index.node_slack, e_hi + index.node_slack
        distance = partition_distances(index, g_lo, g_hi)
        include, expand = crawl_masks(index, e_lo, e_hi, g_lo, g_hi)
        nodes = index.nodes
        for k in range(len(e_lo)):
            assert bits(distance[k]) == bits(
                [
                    node_distance(index, node, g_lo[k], g_hi[k])
                    for node in range(index.num_nodes)
                ]
            )
            assert np.array_equal(
                include[k], boxes_overlap(nodes.mbb_lo, nodes.mbb_hi, e_lo[k], e_hi[k])
            )
            assert np.array_equal(
                expand[k], boxes_overlap(nodes.part_lo, nodes.part_hi, g_lo[k], g_hi[k])
            )
            # One pivot on its own gets its row of the stack.
            alone = crawl_masks(index, e_lo[k], e_hi[k], g_lo[k], g_hi[k])
            assert bits(partition_distances(index, g_lo[k], g_hi[k])) == bits(distance[k])
            assert np.array_equal(alone[0], include[k])
            assert np.array_equal(alone[1], expand[k])


def join_driver(case):
    algo, disk = TransformersJoin(), make_disk()
    index_a, _ = algo.build_index(disk, golden._pair(case)[0])
    index_b, _ = algo.build_index(disk, golden._pair(case)[1])
    return core_join._Driver(algo.config, index_a, index_b, algo.name)


def pivot_boxes(driver, g_node):
    """The pivot box of guide node ``g_node`` in the driver's current
    direction, and its enlargement by the follower's node slack."""
    follower_idx = driver.indexes[1 - driver.guide]
    nodes = driver.indexes[driver.guide].nodes
    e_lo, e_hi = nodes.mbb_lo[g_node], nodes.mbb_hi[g_node]
    slack = follower_idx.node_slack
    return follower_idx, e_lo, e_hi, e_lo - slack, e_hi + slack


class NullPool:
    """Takes the reference's descriptor reads without touching the disk
    (the join under test must see its own I/O only)."""

    def read(self, page_id):
        return None


class TestDriverTables:
    @pytest.mark.parametrize("cells", [None, 7])
    @pytest.mark.parametrize("case", golden.CASES)
    def test_every_row_equals_the_per_pivot_values(self, monkeypatch, case, cells):
        """Both directions, every guide node; ``cells=7`` cuts the
        tables into blocks of a few rows."""
        if cells is not None:
            monkeypatch.setattr(core_join, "_TABLE_CELLS", cells)
        driver = join_driver(case)
        for guide in (0, 1):
            driver.guide = guide
            for g_node in range(driver.indexes[guide].num_nodes):
                follower_idx, e_lo, e_hi, g_lo, g_hi = pivot_boxes(driver, g_node)
                nodes = follower_idx.nodes
                distance, include, expand = driver._exploration_rows(g_node)
                assert bits(distance) == bits(
                    [
                        node_distance(follower_idx, node, g_lo, g_hi)
                        for node in range(follower_idx.num_nodes)
                    ]
                )
                assert include == boxes_overlap(
                    nodes.mbb_lo, nodes.mbb_hi, e_lo, e_hi
                ).tolist()
                assert expand == boxes_overlap(
                    nodes.part_lo, nodes.part_hi, g_lo, g_hi
                ).tolist()

    @pytest.mark.parametrize("case", golden.CASES)
    def test_walks_and_crawls_equal_the_per_pivot_form(self, monkeypatch, case):
        """Every walk and crawl of a whole join — across its role
        switches — returns what the per-pivot form returns for the same
        pivot, start and to-do list, with the same comparison count."""
        driver = join_driver(case)
        pivots, seen = [], []
        process = core_join._Driver._process_node
        real_walk, real_crawl = core_join.adaptive_walk, core_join.adaptive_crawl

        def spy_process(self, g_node, allow_role):
            pivots.append(g_node)
            try:
                return process(self, g_node, allow_role)
            finally:
                pivots.pop()

        def compare(real, reference, index, start, rows, used, stats, pool, *skip):
            """``used`` picks the reference's boxes out of ``(e_lo, e_hi,
            g_lo, g_hi)``."""
            follower_idx, *boxes = pivot_boxes(driver, pivots[-1])
            assert index is follower_idx
            ref_stats = JoinStats()
            want = reference(
                index, start, *boxes[used], ref_stats, NullPool(), *skip
            )
            before = stats.metadata_comparisons
            got = real(index, start, *rows, stats, pool, *skip)
            assert got == want
            assert stats.metadata_comparisons - before == ref_stats.metadata_comparisons
            seen.append((real.__name__, driver.guide))
            return got

        def spy_walk(index, start, distance, stats, pool):
            return compare(
                real_walk, walk_per_pivot, index, start, (distance,),
                slice(2, 4), stats, pool,
            )

        def spy_crawl(index, start, include, expand, stats, pool, skip):
            return compare(
                real_crawl, crawl_per_candidate, index, start,
                (include, expand), slice(0, 4), stats, pool, skip,
            )

        monkeypatch.setattr(core_join._Driver, "_process_node", spy_process)
        monkeypatch.setattr(core_join, "adaptive_walk", spy_walk)
        monkeypatch.setattr(core_join, "adaptive_crawl", spy_crawl)
        result = driver.run()
        assert result.stats.metadata_comparisons == (
            golden.GOLDEN[case]["metadata_comparisons"]
        )
        if case != "uniform_3d":
            assert driver.role_switches > 0
            assert {guide for _, guide in seen} == {0, 1}
        assert {name for name, _ in seen} == {"adaptive_walk", "adaptive_crawl"}

