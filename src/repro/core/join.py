"""TRANSFORMERS join: Adaptive Exploration (Algorithm 2).

The driver visits the *guide* dataset's space nodes one after the
other.  For each pivot node it

1. **walks** through the *follower*'s connectivity graph to the pivot's
   location (Algorithm 1, :mod:`repro.core.walk`), possibly starting
   from a B+-tree lookup on the pivot centre's Hilbert value;
2. checks whether a **transformation** applies
   (:mod:`repro.core.transformations`): switch guide and follower when
   the follower is locally sparser, and/or split the pivot to
   space-unit — or, under extreme skew, single-element — granularity;
3. **crawls** the follower's neighbourhood to collect the candidate
   node set (:mod:`repro.core.crawl`), skipping nodes that were
   already fully processed as pivots themselves (the to-do-list rule:
   their result pairs are already reported);
4. filters space units by page-MBB intersection, reads exactly the
   surviving pages, and queues the in-memory **grid hash join** of the
   two element sets;
5. marks the pivot node as checked and re-estimates the cost-model
   thresholds from the measured exploration/IO/filtering rates.

The join finishes when one dataset has no unchecked nodes left — every
result pair (x, y) was reported while processing whichever of x's or
y's node was checked first, so completeness follows by induction.

What steps 1, 3 and 4 compare depends only on the pivot node and the
follower's nodes and units, never on the order of exploration, so the
driver computes it per *direction* (which dataset guides): one (guide
nodes x follower nodes) table of partition distances for the walk, two
of ``include`` / ``expand`` booleans for the crawl and one (guide nodes
x follower units) table of page-MBB hits for step 4's unit filter
(:func:`~repro.core.crawl.unit_masks`, which tests only the units of
included nodes), when the direction's first pivot needs them.  Each
walk, crawl and unit filter then takes its pivot's rows and only looks
values up; the visits, the metadata comparisons and the descriptor
reads are those of a per-pivot computation.  Tables beyond
``_TABLE_CELLS`` cells of the unit table are computed in aligned
blocks of pivot rows.

The queue of step 4 runs as one segmented kernel launch
(:func:`~repro.joins.grid_hash.grid_hash_join_segments`) whenever it
holds ``_QUEUE_ROW_BUDGET`` element rows and when the exploration ends;
its rows are gathered straight into the kernel's ``(d, n)`` column
layout (:meth:`~repro.storage.page.ElementPage.gather_columns`).
No decision waits for a comparison: the thresholds are fed exploration
cost, page reads and filter fractions, never intersection tests or
pairs; every page is still read where it was; and every pair is still
reported, only later (the result is sorted at the end).  The queue is
working memory of the in-memory join, like the kernel's own arrays, and
charges no simulated I/O.  It holds row ranges of the pages' runs, not
pages: a split pivot queues all its units' segments — a unit batch, or
one one-box segment per (element, page) hit of a split unit — as one
batch, cut where one segment at a time would have launched the queue;
a node batch is always one segment and skips the cutting.

Every page is read through the pool's one read body,
:meth:`~repro.storage.buffer.BufferPool.read_many`, a run of ids per
call: the reads a loop of single reads would make, in its order, with
nothing between them that reads.  A node batch reads its guide and
follower pages as one run; a unit split makes two runs (its guide
pages, then its follower pages, each unit's own page and its joins in
plan order), its plan, read list and segments are array-wise — one
cross test, one sum per unit for the mean candidate volume, one
comparison with ``t_so`` for all units, one scatter of the units' own
pages among the pages they join — and only a split unit's element
test loops.

Cost attribution (Figure 14): all descriptor/metadata page I/O and
metadata comparisons are *adaptive exploration overhead*; element-page
I/O and element intersection tests are *join cost*.  Both are recorded
in the result's ``extras``; the data-page cost is the threshold
controller's, which adds each miss's cost delta in read order, so its
float sum is the per-page one under any disk model.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import chain, compress
from typing import TypeVar

import numpy as np

from repro._types import BoolArray, FloatArray, IntArray

from repro.core.config import TransformersConfig
from repro.core.crawl import (
    adaptive_crawl,
    candidate_units,
    crawl_masks,
    unit_masks,
)
from repro.core.indexing import TransformersIndex, build_transformers_index
from repro.core.transformations import ThresholdController
from repro.core.walk import adaptive_walk, partition_distances
from repro.geometry.hilbert import hilbert_index_batch
from repro.joins.base import (
    CostBreakdown,
    CostProfile,
    Dataset,
    JoinStats,
    SpatialJoinAlgorithm,
)
from repro.geometry.boxes import BoxArray
from repro.joins.grid_hash import grid_hash_join_segments
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, RowRanges
from repro.vectorize import boxes_overlap, column_product

_T = TypeVar("_T")

#: Volume floor so degenerate (flat) MBBs cannot produce infinite ratios.
_EPS_VOLUME = 1e-9

#: Queued element rows (both sides) at which the queue is launched.
_QUEUE_ROW_BUDGET = 16_384

#: Cells of one direction's unit table (the widest exploration table)
#: computed at a time: all of them while (guide nodes x follower units)
#: stays below it, else aligned blocks of pivot rows.
_TABLE_CELLS = 1 << 16

#: One direction's tables for the guide nodes ``first, first + 1, ...``:
#: ``(first, distance rows, include rows, expand rows, unit rows)``.
_Tables = tuple[
    int, list[list[float]], list[list[bool]], list[list[bool]], BoolArray
]


def _cross_hits(
    a_lo: FloatArray, a_hi: FloatArray, b_lo: FloatArray, b_hi: FloatArray
) -> BoolArray:
    """``(len(a), len(b))`` matrix: does box ``a[i]`` intersect ``b[j]``?

    One broadcast test for what is logically ``len(a) * len(b)``
    metadata comparisons; callers walk the rows in order afterwards, so
    page reads and threshold decisions happen in the order a row-by-row
    filter would make them.
    """
    hits: BoolArray = boxes_overlap(
        a_lo[:, None, :], a_hi[:, None, :], b_lo[None, :, :], b_hi[None, :, :]
    )
    return hits


class TransformersJoin(SpatialJoinAlgorithm):
    """The paper's adaptive spatial join.

    >>> from repro.datagen import uniform_dataset, scaled_space
    >>> from repro.storage import SimulatedDisk
    >>> space = scaled_space(600)
    >>> a = uniform_dataset(300, seed=1, name="A", space=space)
    >>> b = uniform_dataset(300, seed=2, name="B", id_offset=10**9, space=space)
    >>> disk, algo = SimulatedDisk(), TransformersJoin()
    >>> index_a, _ = algo.build_index(disk, a)
    >>> index_b, _ = algo.build_index(disk, b)
    >>> algo.join(index_a, index_b).stats.pairs_found >= 0
    True
    """

    name = "TRANSFORMERS"

    def __init__(self, config: TransformersConfig | None = None) -> None:
        self.config = config or TransformersConfig()

    def _build(
        self, disk: SimulatedDisk, dataset: Dataset, stats: JoinStats
    ) -> TransformersIndex:
        """Build the three-level TRANSFORMERS index (Section IV)."""
        return build_transformers_index(disk, dataset, stats)

    def _join(
        self,
        index_a: TransformersIndex,
        index_b: TransformersIndex,
        stats: JoinStats,
    ) -> list[IntArray]:
        """Adaptive exploration over two TRANSFORMERS indexes."""
        return _Driver(self.config, index_a, index_b, stats).run()

    def estimate_join_cost(self, profile: CostProfile) -> CostBreakdown:
        """Predicted cost (calibrated on the pinned uniform suite).

        Indexing streams both datasets into space units plus a thin
        descriptor hierarchy: ~1.1 writes per data page plus a small
        constant.  The join touches only *active* pages (the adaptive
        exploration skips regions without partner mass) with a
        predominantly sequential pattern: the pinned Table I runs
        measure ≈1.15 sequential + 0.2 random reads per active page.
        Comparisons include metadata tests; ~0.7× the space-unit
        collision estimate matches the measured counter.
        """
        index_io = (1.1 * profile.pages_total + 25.0) * profile.write_cost
        blend = 1.15 * profile.seq_read_cost + 0.2 * profile.random_read_cost
        join_io = blend * profile.active_pages_total
        unit_side = profile.partition_side(profile.page_capacity)
        est_tests = 0.7 * profile.collision(unit_side)
        join_cpu = est_tests * profile.intersection_test_cost
        return CostBreakdown(
            index_io=index_io,
            join_io=join_io,
            join_cpu=join_cpu,
            est_tests=est_tests,
        )


class _Driver:
    """Mutable state of one adaptive-exploration run."""

    def __init__(
        self,
        config: TransformersConfig,
        index_a: TransformersIndex,
        index_b: TransformersIndex,
        stats: JoinStats,
    ) -> None:
        self.config = config
        self.indexes = (index_a, index_b)
        self.disk = index_a.disk
        self.pool = BufferPool(self.disk, config.buffer_pages)
        #: Descriptor/metadata pages get their own pool so bulk data
        #: reads cannot evict the (small, hot) navigation structures.
        self.meta_pool = BufferPool(self.disk, config.metadata_buffer_pages)
        self.stats = stats
        self.thresholds = ThresholdController(
            config,
            n_su=index_a.units_per_node,
            n_so=index_a.elements_per_unit,
        )
        #: Per-dataset to-do lists at node granularity, and their
        #: complements (the nodes a crawl skips).
        self.unchecked: list[set[int]] = [
            set(range(index_a.num_nodes)),
            set(range(index_b.num_nodes)),
        ]
        self.checked: list[set[int]] = [set(), set()]
        #: Scan pointer per dataset: nodes before it are all checked, so
        #: pivots are visited in STR (spatially local) order.
        self.scan_pos = [0, 0]
        #: Last walk position per dataset (when it acted as follower).
        self.walk_pos: list[int | None] = [None, None]
        self.guide = 0
        #: Walk and crawl tables per direction, keyed by the guide side.
        self.tables: list[_Tables | None] = [None, None]
        #: Node MBB volumes per side (floored), for the role decision.
        self.volumes: list[list[float]] = [
            np.maximum(index.nodes.volumes(), _EPS_VOLUME).tolist()
            for index in self.indexes
        ]
        #: Comparisons not yet run, a batch of segments per entry: (guide
        #: rows, follower rows, guide rows per segment, follower rows per
        #: segment, guide).
        self.queue: list[tuple[RowRanges, RowRanges, IntArray, IntArray, int]] = []
        self.queued_rows = 0
        self.out: list[IntArray] = []
        # Figure-14 attribution (simulated cost units); the data side is
        # the threshold controller's sum of the data-page reads.
        self.exploration_io = 0.0
        # Transformation counters.
        self.role_switches = 0
        self.splits_to_unit = 0
        self.splits_to_element = 0

    # ------------------------------------------------------------------
    # Top-level loop
    # ------------------------------------------------------------------
    def run(self) -> list[IntArray]:
        """Explore until one side is done; return the pair chunks and
        leave the transformation counters and the Figure-14 costs in
        the stats' ``extras``."""
        self._load_directory()
        while self.unchecked[0] and self.unchecked[1]:
            if not self.unchecked[self.guide]:
                # Initial pass over the guide done; restart with the
                # dataset that has fewer unexamined nodes (Section V).
                self.guide = 1 - self.guide
            pivot = self._next_pivot(self.guide)
            self._process_node(pivot, allow_role=True)
            self.thresholds.update_thresholds()
        self._flush_queue()

        stats = self.stats
        cm = self.config.cost_model
        stats.extras["role_switches"] = float(self.role_switches)
        stats.extras["splits_to_unit"] = float(self.splits_to_unit)
        stats.extras["splits_to_element"] = float(self.splits_to_element)
        stats.extras["exploration_io_cost"] = self.exploration_io
        stats.extras["data_io_cost"] = self.thresholds.data_cost
        stats.extras["exploration_cost"] = (
            self.exploration_io
            + stats.metadata_comparisons * cm.metadata_test_cost
        )
        stats.extras["join_cost"] = (
            self.thresholds.data_cost
            + stats.intersection_tests * cm.intersection_test_cost
        )
        stats.extras["t_su_final"] = self.thresholds.t_su
        stats.extras["t_so_final"] = self.thresholds.t_so
        return self.out

    def _load_directory(self) -> None:
        """Sequentially read both datasets' descriptor directories.

        The paper's join starts from the to-do list of space-node ids
        collected at indexing time; loading the node/unit descriptor
        pages once, in disk order, is the corresponding I/O.  All
        subsequent descriptor accesses then hit the metadata pool
        instead of tearing the data-read stream with random seeks.

        Each index's directory is read as its own run, A's then B's,
        so the reads do not depend on which index was built first (a
        cached index may be older than its partner); for two indexes
        built in join order this is the disk order of both.
        """
        io_before = self.disk.stats.read_cost
        self.meta_pool.read_many(
            chain.from_iterable(
                sorted(
                    [
                        *index.nodes.meta_page_ids.tolist(),
                        *index.nodes.desc_page_ids.tolist(),
                    ]
                )
                for index in self.indexes
            )
        )
        self.exploration_io += self.disk.stats.read_cost - io_before

    def _next_pivot(self, side: int) -> int:
        """Next unchecked node of ``side`` in STR order.

        The scan pointer never passes an unchecked node, so everything
        before it is checked and the first unchecked node is always at
        or after it; running off the end would mean the to-do list and
        the pointer disagree — a bug worth failing loudly on.
        """
        unchecked = self.unchecked[side]
        limit = self.indexes[side].num_nodes
        pos = self.scan_pos[side]
        while pos not in unchecked:
            pos += 1
            if pos >= limit:
                raise RuntimeError(
                    "adaptive exploration lost track of its to-do list"
                )
        self.scan_pos[side] = pos
        return pos

    def _mark_checked(self, side: int, node: int) -> None:
        self.unchecked[side].discard(node)
        self.checked[side].add(node)

    # ------------------------------------------------------------------
    # Charged reads with Figure-14 attribution
    # ------------------------------------------------------------------
    def _explore(self, fn: Callable[..., _T], *args: object) -> _T:
        """Run an exploration step, attributing its I/O and CPU cost."""
        io_before = self.disk.stats.read_cost
        meta_before = self.stats.metadata_comparisons
        result = fn(*args)
        io_delta = self.disk.stats.read_cost - io_before
        meta_delta = self.stats.metadata_comparisons - meta_before
        self.exploration_io += io_delta
        self.thresholds.record_exploration(
            io_delta
            + meta_delta * self.config.cost_model.metadata_test_cost,
            steps=max(meta_delta, 1),
        )
        return result

    def _read_data(self, page_ids: Iterable[int]) -> list[ElementPage]:
        """Read data pages in order through the data pool, each miss's
        cost attributed to the join side as it was read: the threshold
        controller adds the misses' deltas in read order, so its sum —
        Figure 14's data I/O — is the per-page one under any disk model."""
        pages, costs = self.pool.read_many(page_ids, ElementPage)
        self.thresholds.record_data_reads(costs)
        return pages

    def _read_descriptor_page(self, page_id: int) -> None:
        """Read a metadata page (unit descriptors), cost to exploration."""
        io_before = self.disk.stats.read_cost
        self.meta_pool.read(int(page_id))
        self.exploration_io += self.disk.stats.read_cost - io_before

    # ------------------------------------------------------------------
    # Node-level pivot processing
    # ------------------------------------------------------------------
    def _process_node(self, g_node: int, allow_role: bool) -> None:
        follower = 1 - self.guide
        follower_idx = self.indexes[follower]
        distance, include, expand, unit_hit = self._exploration_rows(g_node)

        start = self._walk_start(g_node)
        found = self._explore(
            adaptive_walk,
            follower_idx.nodes, start, distance, self.stats, self.meta_pool,
        )
        if found is None:
            self._mark_checked(self.guide, g_node)
            return
        self.walk_pos[follower] = found

        decision = self.thresholds.decide_node(
            self.volumes[self.guide][g_node] / self.volumes[follower][found],
            allow_role=allow_role,
        )

        if decision.action == "role" and found in self.unchecked[follower]:
            # Transform 1: the follower is locally sparser — switch the
            # roles and continue from the element in the new guide
            # closest to the old pivot (the walk's find).  Switching
            # onto an already-checked node would be a no-op (its pairs
            # were reported when it was the pivot), so in that case we
            # fall through to the normal crawl below, which skips
            # checked nodes anyway.
            self.role_switches += 1
            self.thresholds.note_transformation()
            self.walk_pos[self.guide] = g_node
            self.guide = follower
            self._process_node(found, allow_role=False)
            return

        cand_nodes = self._explore(
            adaptive_crawl,
            follower_idx.nodes, found, include, expand,
            self.stats, self.meta_pool, self.checked[follower],
        )
        if not cand_nodes:
            self._mark_checked(self.guide, g_node)
            return

        if decision.action == "split":
            self.splits_to_unit += 1
            self.thresholds.note_transformation()
            self._process_units(g_node, cand_nodes, unit_hit)
        else:
            self._process_node_batch(g_node, cand_nodes, unit_hit)
        self._mark_checked(self.guide, g_node)

    def _exploration_rows(
        self, g_node: int
    ) -> tuple[list[float], list[bool], list[bool], BoolArray]:
        """The pivot's rows of the current direction's tables: follower
        node distances for the walk, ``include`` / ``expand`` for the
        crawl, and which follower units' page MBBs meet the pivot for
        :func:`candidate_units`.  A direction's tables are computed when
        its first pivot needs them (a direction the join never takes
        costs nothing)."""
        tables = self.tables[self.guide]
        if tables is None or not 0 <= g_node - tables[0] < len(tables[1]):
            tables = self.tables[self.guide] = self._compute_tables(g_node)
        first, distance, include, expand, units = tables
        k = g_node - first
        return distance[k], include[k], expand[k], units[k]

    def _compute_tables(self, g_node: int) -> _Tables:
        """The block of the current direction's tables holding ``g_node``:
        pivot boxes are the guide nodes' MBBs, enlarged by the follower's
        node slack for the walk and the crawl's expansion.  The unit
        table is the widest, so it sets the block's rows."""
        guide_nodes = self.indexes[self.guide].nodes
        follower_idx = self.indexes[1 - self.guide]
        rows = max(1, _TABLE_CELLS // max(follower_idx.num_units, 1))
        first = g_node - g_node % rows
        e_lo = guide_nodes.mbb_lo[first : first + rows]
        e_hi = guide_nodes.mbb_hi[first : first + rows]
        g_lo = e_lo - follower_idx.node_slack
        g_hi = e_hi + follower_idx.node_slack
        follower_nodes = follower_idx.nodes
        include, expand = crawl_masks(follower_nodes, e_lo, e_hi, g_lo, g_hi)
        return (
            first,
            partition_distances(follower_nodes, g_lo, g_hi).tolist(),
            include.tolist(),
            expand.tolist(),
            unit_masks(follower_idx.units, e_lo, e_hi, include),
        )

    def _walk_start(self, g_node: int) -> int:
        """Previous walk position, or a B+-tree lookup of the Hilbert key
        of the pivot's centre."""
        follower_idx = self.indexes[1 - self.guide]
        pos = self.walk_pos[1 - self.guide]
        if pos is not None:
            return pos
        nodes = self.indexes[self.guide].nodes
        center = (nodes.mbb_lo[g_node] + nodes.mbb_hi[g_node]) / 2.0
        key = int(
            hilbert_index_batch(
                center.reshape(1, -1),
                follower_idx.space,
                bits=follower_idx.btree_bits,
            )[0]
        )
        io_before = self.disk.stats.read_cost
        _, node = follower_idx.btree.nearest(key, self.meta_pool)
        self.exploration_io += self.disk.stats.read_cost - io_before
        return int(node)

    # ------------------------------------------------------------------
    # Batch (node-granularity) join — Transform "none"
    # ------------------------------------------------------------------
    def _process_node_batch(
        self, g_node: int, cand_nodes: list[int], unit_hit: BoolArray
    ) -> None:
        guide_idx = self.indexes[self.guide]
        follower_idx = self.indexes[1 - self.guide]

        # Unit descriptors of the pivot node (one descriptor page).
        self._read_descriptor_page(guide_idx.nodes.desc_page_ids[g_node])
        g_units = guide_idx.nodes.units[g_node]

        # Candidate units of the follower, filtered by the pivot's MBB.
        f_units = self._explore(
            candidate_units,
            follower_idx, cand_nodes, unit_hit.take, self.stats, self.meta_pool,
        )
        if f_units.size == 0:
            return

        # Page-MBB cross filter between the two unit sets (Section V:
        # "additionally filters elements before the in-memory join").
        self.stats.metadata_comparisons += len(g_units) * len(f_units)
        hits = _cross_hits(
            guide_idx.units.page_lo.take(g_units, axis=0),
            guide_idx.units.page_hi.take(g_units, axis=0),
            follower_idx.units.page_lo.take(f_units, axis=0),
            follower_idx.units.page_hi.take(f_units, axis=0),
        )
        g_keep = hits.any(axis=1)
        f_keep = hits.any(axis=0)
        self.thresholds.record_filter_fraction(
            1.0 - float(f_keep.sum()) / float(len(f_units))
        )
        if not g_keep.any():
            return

        # Read surviving pages in ascending page-id order: the batch
        # join is order-independent, and STR neighbours sit on adjacent
        # pages, so sorted access turns most of these reads sequential.
        g_page_ids = np.sort(guide_idx.units.element_page_ids[g_units[g_keep]])
        f_page_ids = np.sort(follower_idx.units.element_page_ids[f_units[f_keep]])
        pages = self._read_data(np.concatenate((g_page_ids, f_page_ids)).tolist())
        self._join_pages(pages[: len(g_page_ids)], pages[len(g_page_ids) :])

    def _join_pages(
        self, g_pages: list[ElementPage], f_pages: list[ElementPage]
    ) -> None:
        """Queue the grid hash join between two page groups: a batch of
        one segment, dropped when a side has no row."""
        g, f = ElementPage.row_ranges(g_pages), ElementPage.row_ranges(f_pages)
        g_rows = (g[2] - g[1]).sum(keepdims=True)
        f_rows = (f[2] - f[1]).sum(keepdims=True)
        if g_rows[0] and f_rows[0]:
            self._queue(g, f, g_rows, f_rows, int(g_rows[0] + f_rows[0]))

    def _queue(
        self, g: RowRanges, f: RowRanges, g_rows: IntArray, f_rows: IntArray,
        rows: int,
    ) -> None:
        """Append a batch of ``rows`` element rows to the queue; launch
        the queue once it holds the budget."""
        self.queue.append((g, f, g_rows, f_rows, self.guide))
        self.queued_rows += rows
        if self.queued_rows >= _QUEUE_ROW_BUDGET:
            self._flush_queue()

    def _enqueue(
        self, g: RowRanges, f: RowRanges, g_per: IntArray, f_per: IntArray
    ) -> None:
        """Queue a batch of segments: segment ``s`` joins the next
        ``g_per[s]`` ranges of ``g`` with the next ``f_per[s]`` of ``f``.
        A segment with no row on a side has nothing to compare and is
        dropped.  The batch is cut where one segment at a time would have
        launched the queue: after the segment that reaches the budget."""
        g_rows, f_rows = _segment_rows(g, g_per), _segment_rows(f, f_per)
        keep = (g_rows > 0) & (f_rows > 0)
        if not keep.all():
            g, f = _select(g, keep.repeat(g_per)), _select(f, keep.repeat(f_per))
            g_per, f_per = g_per[keep], f_per[keep]
            g_rows, f_rows = g_rows[keep], f_rows[keep]
        g_ends, f_ends = [0, *g_per.cumsum().tolist()], [0, *f_per.cumsum().tolist()]
        start, n = 0, len(g_rows)
        while start < n:
            queued = (g_rows[start:] + f_rows[start:]).cumsum()
            cut = int(queued.searchsorted(_QUEUE_ROW_BUDGET - self.queued_rows))
            stop = start + min(cut + 1, n - start)
            self._queue(
                _slice(g, g_ends[start], g_ends[stop]),
                _slice(f, f_ends[start], f_ends[stop]),
                g_rows[start:stop],
                f_rows[start:stop],
                int(queued[stop - start - 1]),
            )
            start = stop

    def _flush_queue(self) -> None:
        """Run the queued joins as one segmented launch; emit the pairs
        oriented as (id from A, id from B)."""
        if not self.queue:
            return
        g_side, f_side, g_rows, f_rows, guides = zip(*self.queue)
        # Gathered straight into the kernel's ``(d, n)`` column layout;
        # the boxes are ``(n, d)`` views of the columns.
        g_ids, g_lo, g_hi = ElementPage.gather_columns(g_side)
        f_ids, f_lo, f_hi = ElementPage.gather_columns(f_side)
        g_counts, f_counts = np.concatenate(g_rows), np.concatenate(f_rows)
        idx, groups, tests = grid_hash_join_segments(
            BoxArray.trusted(g_lo.T, g_hi.T),
            BoxArray.trusted(f_lo.T, f_hi.T),
            np.concatenate(([0], np.cumsum(g_counts))),
            np.concatenate(([0], np.cumsum(f_counts))),
        )
        guided_by_b = np.repeat(np.array(guides) == 1, list(map(len, g_rows)))
        self.queue.clear()
        self.queued_rows = 0
        # ``int``: the stats are dumped as JSON and pickled between tiers.
        self.stats.intersection_tests += int(tests.sum())
        if idx.size:
            from_guide = g_ids.take(idx[:, 0])
            from_follower = f_ids.take(idx[:, 1])
            swap = guided_by_b.take(groups)
            a_ids = np.where(swap, from_follower, from_guide)
            b_ids = np.where(swap, from_guide, from_follower)
            self.out.append(np.column_stack((a_ids, b_ids)))

    # ------------------------------------------------------------------
    # Unit- and element-granularity processing — Transform "split"
    # ------------------------------------------------------------------
    def _process_units(
        self, g_node: int, cand_nodes: list[int], unit_hit: BoolArray
    ) -> None:
        """Join the pivot unit by unit, and element by element where a
        unit is much denser than its candidates.

        The split uses a space element as pivot (level 2) against the
        follower's space units (level 1): "It splits a space unit into
        its spatial elements, thus using a spatial element as pivot
        (level 2) while using the space unit as a level of granularity
        for the follower (level 1)."  The pivot's data pages are read
        in two runs, each one :meth:`_read_data`: the guide pages (a
        sorted prefetch, then the split units' pages again), and the
        follower pages (a sorted prefetch of every page some planned
        unit or split element needs, then, unit by unit in plan order,
        the unit's own page and the follower pages it joins) — the
        order in which a unit-at-a-time loop reads them.  Only the
        split units' element tests loop; the plan, the read list and
        the queued segments are built array-wise over all units.
        """
        guide_idx = self.indexes[self.guide]
        follower_idx = self.indexes[1 - self.guide]

        self._read_descriptor_page(guide_idx.nodes.desc_page_ids[g_node])
        g_units = guide_idx.nodes.units[g_node]

        f_units = self._explore(
            candidate_units,
            follower_idx, cand_nodes, unit_hit.take, self.stats, self.meta_pool,
        )
        if f_units.size == 0:
            return
        f_lo = follower_idx.units.page_lo.take(f_units, axis=0)
        f_hi = follower_idx.units.page_hi.take(f_units, axis=0)
        f_page_of = follower_idx.units.element_page_ids.take(f_units)

        # Phase 1 — plan, metadata only: the guide units whose page MBB
        # meets a candidate's, each one's candidates (its row of
        # ``cand``) and granularity, from the ratio of its volume to the
        # mean volume of its candidates.  Each mean is NumPy's sum of
        # the unit's own run of candidate volumes over their count, the
        # float a per-unit ``mean`` gives.
        u_lo = guide_idx.units.page_lo.take(g_units, axis=0)
        u_hi = guide_idx.units.page_hi.take(g_units, axis=0)
        self.stats.metadata_comparisons += len(g_units) * len(f_units)
        hits = _cross_hits(u_lo, u_hi, f_lo, f_hi)
        planned = hits.any(axis=1).nonzero()[0]
        cand = hits[planned]
        counts = cand.sum(axis=1)
        self.thresholds.record_filter_fraction(
            1.0 - int(counts.sum()) / (len(f_units) * max(len(g_units), 1))
        )
        if not planned.size:
            return
        f_volumes = np.maximum(column_product(f_hi - f_lo), _EPS_VOLUME)
        volumes = f_volumes[cand.nonzero()[1]]
        ends = counts.cumsum().tolist()
        add = np.add.reduce
        sums = np.array([add(volumes[a:b]) for a, b in zip([0, *ends], ends)])
        u_volumes = np.maximum(column_product(u_hi - u_lo), _EPS_VOLUME)
        split = self.thresholds.split_units(u_volumes[planned] / (sums / counts))
        splits = split.nonzero()[0].tolist()
        if splits:
            self.splits_to_element += len(splits)
            self.thresholds.note_transformation()

        # Phase 2 — the guide pages: a sorted (sequential) prefetch,
        # then the split units' pages, whose elements phase 3 tests.
        g_page_ids = guide_idx.units.element_page_ids[g_units[planned]]
        split_pages = self._read_data(
            np.concatenate((np.sort(g_page_ids), g_page_ids[splits])).tolist()
        )[len(g_page_ids) :]

        # Phase 3 — exactly which follower pages are needed.  A unit
        # batch needs every candidate page; a split unit's elements
        # need only the pages whose page MBB meets one of them
        # ("retrieving only exactly the data needed", Section III), and
        # each element joins each such page as a one-box segment (its
        # grid has one cell, so the kernel tests the element against
        # the whole page).  ``nonzero`` lists the (element, unit) hits
        # element by element, units ascending.
        needed = set(f_page_of[cand[~split].any(axis=0)].tolist())
        joins = counts.copy()
        e_hits: list[IntArray] = []
        e_pages: list[IntArray] = []
        for k, g_page in zip(splits, split_pages):
            columns = cand[k].nonzero()[0]
            boxes = g_page.boxes
            element_hits = _cross_hits(
                boxes.lo, boxes.hi, f_lo[columns], f_hi[columns]
            )
            touched = element_hits.any(axis=0)
            self.stats.metadata_comparisons += len(g_page) * (
                len(columns) + int(touched.sum())
            )
            e_hit, u_hit = element_hits[:, touched].nonzero()
            touched_pages = f_page_of[columns[touched]]
            needed.update(touched_pages.tolist())
            e_hits.append(e_hit)
            e_pages.append(touched_pages[u_hit])
            joins[k] = len(e_hit)

        # Phase 4 — the follower pages: a sorted prefetch, then each
        # planned unit's own page and the pages it joins, in plan order
        # (pool hits unless the prefetch evicted them): a unit batch
        # its candidates' pages ascending (its row of ``cand`` with the
        # columns in page order), a split unit its elements' pages.
        # ``joins[k]`` follower pages follow unit ``k``'s own page.
        by_page = f_page_of.argsort()
        _, column = cand[~split][:, by_page].nonzero()
        to_follower = np.repeat(split, joins)
        follower_reads = np.empty(len(to_follower), dtype=f_page_of.dtype)
        follower_reads[~to_follower] = f_page_of[by_page[column]]
        if splits:
            follower_reads[to_follower] = np.concatenate(e_pages)
        own = np.arange(len(planned)) + (joins.cumsum() - joins)
        is_own = np.zeros(len(planned) + len(follower_reads), dtype=bool)
        is_own[own] = True
        reads = np.empty(len(is_own), dtype=f_page_of.dtype)
        reads[own] = g_page_ids
        reads[~is_own] = follower_reads
        prefetch = sorted(needed)
        pages = self._read_data([*prefetch, *reads.tolist()])[len(prefetch) :]

        # Phase 5 — queue every planned unit's segments as one batch:
        # each segment has one guide range, the unit's page (joining
        # all its follower pages) or one of its elements (joining one).
        g_pages = list(map(pages.__getitem__, own.tolist()))
        _, g_starts, g_stops = ElementPage.row_ranges(g_pages)
        unit = np.repeat(np.arange(len(planned)), np.where(split, joins, 1))
        starts, stops = g_starts[unit], g_stops[unit]
        f_per = joins[unit]
        if splits:
            element = split[unit]
            starts[element] += np.concatenate(e_hits)
            stops[element] = starts[element] + 1
            f_per[element] = 1
        self._enqueue(
            (list(map(g_pages.__getitem__, unit.tolist())), starts, stops),
            ElementPage.row_ranges(list(compress(pages, (~is_own).tolist()))),
            np.ones(len(unit), dtype=np.intp),
            f_per,
        )


def _segment_rows(ranges: RowRanges, per: IntArray) -> IntArray:
    """Rows per segment of a side whose segment ``s`` takes the next
    ``per[s]`` (at least one) of its ``ranges``."""
    _, starts, stops = ranges
    rows: IntArray = np.add.reduceat(stops - starts, per.cumsum() - per)
    return rows


def _select(ranges: RowRanges, keep: BoolArray) -> RowRanges:
    """The ranges ``keep`` marks, in order."""
    pages, starts, stops = ranges
    return list(compress(pages, keep.tolist())), starts[keep], stops[keep]


def _slice(ranges: RowRanges, first: int, last: int) -> RowRanges:
    """Ranges ``first`` to ``last`` (exclusive)."""
    pages, starts, stops = ranges
    return pages[first:last], starts[first:last], stops[first:last]
