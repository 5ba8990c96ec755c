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

What steps 1 and 3 compare depends only on the pivot node and the
follower's nodes, never on the order of exploration, so the driver
computes it per *direction* (which dataset guides): one (guide nodes x
follower nodes) table of partition distances for the walk and two of
``include`` / ``expand`` booleans for the crawl, when the direction's
first pivot needs them.  Each walk and crawl then takes its pivot's
rows and only looks values up; the visits, the metadata comparisons
and the descriptor reads are those of a per-pivot computation.  Tables
beyond ``_TABLE_CELLS`` cells are computed in aligned blocks of pivot
rows.

The queue of step 4 runs as one segmented kernel launch
(:func:`~repro.joins.grid_hash.grid_hash_join_segments`) whenever it
holds ``_QUEUE_ROW_BUDGET`` element rows and when the exploration ends.
No decision waits for a comparison: the thresholds are fed exploration
cost, page reads and filter fractions, never intersection tests or
pairs; every page is still read where it was; and every pair is still
reported, only later (the result is sorted at the end).  The queue is
working memory of the in-memory join, like the kernel's own arrays, and
charges no simulated I/O.  It holds row ranges of the pages' runs, not
pages: an element-level split queues all of a unit's (element, page)
hits as one batch of one-box segments, cut where one segment at a time
would have launched the queue.

Cost attribution (Figure 14): all descriptor/metadata page I/O and
metadata comparisons are *adaptive exploration overhead*; element-page
I/O and element intersection tests are *join cost*.  Both are recorded
in the result's ``extras``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from itertools import chain
from typing import TypeVar

import numpy as np

from repro._types import BoolArray, FloatArray, IntArray

from repro.core.config import TransformersConfig
from repro.core.crawl import adaptive_crawl, candidate_units, crawl_masks
from repro.core.indexing import TransformersIndex, build_transformers_index
from repro.core.transformations import ThresholdController
from repro.core.walk import adaptive_walk, partition_distances
from repro.geometry.slots import SlotPickleMixin
from repro.geometry.hilbert import hilbert_index_batch
from repro.joins.base import (
    CostBreakdown,
    CostProfile,
    Dataset,
    JoinResult,
    JoinStats,
    SpatialJoinAlgorithm,
    canonical_pairs,
)
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

#: Cells of one direction's exploration tables computed at a time: all
#: of them while (guide nodes x follower nodes) stays below it, else
#: aligned blocks of pivot rows.
_TABLE_CELLS = 1 << 16

#: One direction's tables for the guide nodes ``first, first + 1, ...``:
#: ``(first, distance rows, include rows, expand rows)``.
_Tables = tuple[int, list[list[float]], list[list[bool]], list[list[bool]]]


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


class _CheckedView(SlotPickleMixin):
    """Container view answering "is this node already checked?".

    Wraps the live *unchecked* set so the crawl's ``skip`` argument
    always reflects the current to-do list without copying.
    """

    __slots__ = ("_unchecked",)

    def __init__(self, unchecked: set[int]) -> None:
        self._unchecked = unchecked

    def __contains__(self, node: object) -> bool:
        return node not in self._unchecked


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

    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[TransformersIndex, JoinStats]:
        """Build the three-level TRANSFORMERS index (Section IV)."""
        return build_transformers_index(disk, dataset, self.name)

    def join(
        self, index_a: TransformersIndex, index_b: TransformersIndex
    ) -> JoinResult:
        """Adaptive exploration over two TRANSFORMERS indexes."""
        if index_a.disk is not index_b.disk:
            raise ValueError("both indexes must live on the same disk")
        driver = _Driver(self.config, index_a, index_b, self.name)
        return driver.run()

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
        algorithm_name: str,
    ) -> None:
        self.config = config
        self.indexes = (index_a, index_b)
        self.disk = index_a.disk
        self.pool = BufferPool(self.disk, config.buffer_pages)
        #: Descriptor/metadata pages get their own pool so bulk data
        #: reads cannot evict the (small, hot) navigation structures.
        self.meta_pool = BufferPool(self.disk, config.metadata_buffer_pages)
        self.stats = JoinStats(algorithm=algorithm_name, phase="join")
        self.thresholds = ThresholdController(
            config,
            n_su=index_a.units_per_node,
            n_so=index_a.elements_per_unit,
        )
        #: Per-dataset to-do lists at node granularity.
        self.unchecked: list[set[int]] = [
            set(range(index_a.num_nodes)),
            set(range(index_b.num_nodes)),
        ]
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
        self.queue: list[
            tuple[list[RowRanges], list[RowRanges], IntArray, IntArray, int]
        ] = []
        self.queued_rows = 0
        self.out: list[IntArray] = []
        # Figure-14 attribution (simulated cost units).
        self.exploration_io = 0.0
        self.data_io = 0.0
        self.data_pages = 0
        # Transformation counters.
        self.role_switches = 0
        self.splits_to_unit = 0
        self.splits_to_element = 0

    # ------------------------------------------------------------------
    # Top-level loop
    # ------------------------------------------------------------------
    def run(self) -> JoinResult:
        start = time.perf_counter()
        io_before = self.disk.stats.snapshot()
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

        pairs = (
            canonical_pairs(np.concatenate(self.out))
            if self.out
            else np.empty((0, 2), dtype=np.int64)
        )
        stats = self.stats
        stats.pairs_found = len(pairs)
        stats.absorb_io(self.disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        cm = self.config.cost_model
        stats.extras["role_switches"] = float(self.role_switches)
        stats.extras["splits_to_unit"] = float(self.splits_to_unit)
        stats.extras["splits_to_element"] = float(self.splits_to_element)
        stats.extras["exploration_io_cost"] = self.exploration_io
        stats.extras["data_io_cost"] = self.data_io
        stats.extras["exploration_cost"] = (
            self.exploration_io
            + stats.metadata_comparisons * cm.metadata_test_cost
        )
        stats.extras["join_cost"] = (
            self.data_io + stats.intersection_tests * cm.intersection_test_cost
        )
        stats.extras["t_su_final"] = self.thresholds.t_su
        stats.extras["t_so_final"] = self.thresholds.t_so
        return JoinResult(pairs=pairs, stats=stats)

    def _load_directory(self) -> None:
        """Sequentially read both datasets' descriptor directories.

        The paper's join starts from the to-do list of space-node ids
        collected at indexing time; loading the node/unit descriptor
        pages once, in disk order, is the corresponding I/O.  All
        subsequent descriptor accesses then hit the metadata pool
        instead of tearing the data-read stream with random seeks.
        """
        io_before = self.disk.stats.read_cost
        page_ids: list[int] = []
        for index in self.indexes:
            page_ids.extend(int(p) for p in index.nodes.meta_page_ids)
            page_ids.extend(int(p) for p in index.nodes.desc_page_ids)
        for page_id in sorted(page_ids):
            self.meta_pool.read(page_id)
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

    def _read_element_pages(self, page_ids: list[int]) -> list[ElementPage]:
        """Read data pages in order, attributing each page's cost to the
        join side as it is read: the deltas are added page by page, so
        the float sums are the per-page ones under any disk model.  A
        pool hit charges nothing, so only a miss moves the disk's cost."""
        stats, pool = self.disk.stats, self.pool
        read, record = pool.read, self.thresholds.record_data_read
        misses, cost = pool.misses, stats.read_cost
        pages = []
        for page_id in page_ids:
            page = read(page_id)
            if pool.misses != misses:
                misses, before, cost = pool.misses, cost, stats.read_cost
                delta = cost - before
                self.data_io += delta
                self.data_pages += 1
                record(delta, 1)
            if not isinstance(page, ElementPage):
                raise TypeError(f"page {page_id} is not an element page")
            pages.append(page)
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
        distance, include, expand = self._exploration_rows(g_node)

        start = self._walk_start(g_node)
        found = self._explore(
            adaptive_walk,
            follower_idx, start, distance, self.stats, self.meta_pool,
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

        checked_view = _CheckedView(self.unchecked[follower])
        cand_nodes = self._explore(
            adaptive_crawl,
            follower_idx, found, include, expand,
            self.stats, self.meta_pool, checked_view,
        )
        if not cand_nodes:
            self._mark_checked(self.guide, g_node)
            return

        if decision.action == "split":
            self.splits_to_unit += 1
            self.thresholds.note_transformation()
            self._process_units(g_node, cand_nodes)
        else:
            self._process_node_batch(g_node, cand_nodes)
        self._mark_checked(self.guide, g_node)

    def _exploration_rows(
        self, g_node: int
    ) -> tuple[list[float], list[bool], list[bool]]:
        """The pivot's rows of the current direction's tables: follower
        node distances for the walk, ``include`` / ``expand`` for the
        crawl.  A direction's tables are computed when its first pivot
        needs them (a direction the join never takes costs nothing)."""
        tables = self.tables[self.guide]
        if tables is None or not 0 <= g_node - tables[0] < len(tables[1]):
            tables = self.tables[self.guide] = self._compute_tables(g_node)
        first, distance, include, expand = tables
        k = g_node - first
        return distance[k], include[k], expand[k]

    def _compute_tables(self, g_node: int) -> _Tables:
        """The block of the current direction's tables holding ``g_node``:
        pivot boxes are the guide nodes' MBBs, enlarged by the follower's
        node slack for the walk and the crawl's expansion."""
        guide_nodes = self.indexes[self.guide].nodes
        follower_idx = self.indexes[1 - self.guide]
        rows = max(1, _TABLE_CELLS // max(follower_idx.num_nodes, 1))
        first = g_node - g_node % rows
        e_lo = guide_nodes.mbb_lo[first : first + rows]
        e_hi = guide_nodes.mbb_hi[first : first + rows]
        g_lo = e_lo - follower_idx.node_slack
        g_hi = e_hi + follower_idx.node_slack
        include, expand = crawl_masks(follower_idx, e_lo, e_hi, g_lo, g_hi)
        return (
            first,
            partition_distances(follower_idx, g_lo, g_hi).tolist(),
            include.tolist(),
            expand.tolist(),
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
        self, g_node: int, cand_nodes: list[int]
    ) -> None:
        guide_idx = self.indexes[self.guide]
        follower_idx = self.indexes[1 - self.guide]
        e_lo = guide_idx.nodes.mbb_lo[g_node]
        e_hi = guide_idx.nodes.mbb_hi[g_node]

        # Unit descriptors of the pivot node (one descriptor page).
        self._read_descriptor_page(guide_idx.nodes.desc_page_ids[g_node])
        g_units = guide_idx.nodes.units[g_node]

        # Candidate units of the follower, filtered by the pivot's MBB.
        f_units = self._explore(
            candidate_units,
            follower_idx, cand_nodes, e_lo, e_hi, self.stats, self.meta_pool,
        )
        if f_units.size == 0:
            return

        # Page-MBB cross filter between the two unit sets (Section V:
        # "additionally filters elements before the in-memory join").
        self.stats.metadata_comparisons += len(g_units) * len(f_units)
        hits = _cross_hits(
            guide_idx.units.page_lo[g_units],
            guide_idx.units.page_hi[g_units],
            follower_idx.units.page_lo[f_units],
            follower_idx.units.page_hi[f_units],
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
        g_pages = self._read_element_pages(
            np.sort(guide_idx.units.element_page_ids[g_units[g_keep]]).tolist()
        )
        f_pages = self._read_element_pages(
            np.sort(follower_idx.units.element_page_ids[f_units[f_keep]]).tolist()
        )
        self._join_pages(g_pages, f_pages)

    def _join_pages(
        self, g_pages: list[ElementPage], f_pages: list[ElementPage]
    ) -> None:
        """Queue the grid hash join between two page groups."""
        rows = sum(map(len, g_pages)), sum(map(len, f_pages))
        if all(rows):
            self._enqueue(
                ElementPage.row_ranges(g_pages),
                ElementPage.row_ranges(f_pages),
                np.array(rows[:1]),
                np.array(rows[1:]),
                sum(rows),
            )

    def _enqueue(
        self,
        g_ranges: list[RowRanges],
        f_ranges: list[RowRanges],
        g_rows: IntArray,
        f_rows: IntArray,
        rows: int,
    ) -> None:
        """Queue a batch of segments (``g_rows[k]`` guide rows against
        ``f_rows[k]`` follower rows, in the ranges' order; ``rows`` in
        all); launch the queue once it holds the row budget."""
        self.queue.append((g_ranges, f_ranges, g_rows, f_rows, self.guide))
        self.queued_rows += rows
        if self.queued_rows >= _QUEUE_ROW_BUDGET:
            self._flush_queue()

    def _flush_queue(self) -> None:
        """Run the queued joins as one segmented launch; emit the pairs
        oriented as (id from A, id from B)."""
        if not self.queue:
            return
        g_ranges, f_ranges, g_rows, f_rows, guides = zip(*self.queue)
        g_ids, g_boxes = ElementPage.gather_ranges(
            list(chain.from_iterable(g_ranges))
        )
        f_ids, f_boxes = ElementPage.gather_ranges(
            list(chain.from_iterable(f_ranges))
        )
        g_counts, f_counts = np.concatenate(g_rows), np.concatenate(f_rows)
        idx, groups, tests = grid_hash_join_segments(
            g_boxes,
            f_boxes,
            np.concatenate(([0], np.cumsum(g_counts))),
            np.concatenate(([0], np.cumsum(f_counts))),
        )
        guided_by_b = np.repeat(np.array(guides) == 1, list(map(len, g_rows)))
        self.queue.clear()
        self.queued_rows = 0
        # ``int``: the stats are dumped as JSON and pickled between tiers.
        self.stats.intersection_tests += int(tests.sum())
        if idx.size:
            from_guide = np.take(g_ids, idx[:, 0])
            from_follower = np.take(f_ids, idx[:, 1])
            swap = np.take(guided_by_b, groups)
            a_ids = np.where(swap, from_follower, from_guide)
            b_ids = np.where(swap, from_guide, from_follower)
            self.out.append(np.column_stack((a_ids, b_ids)))

    # ------------------------------------------------------------------
    # Unit-granularity processing — Transform "split"
    # ------------------------------------------------------------------
    def _process_units(self, g_node: int, cand_nodes: list[int]) -> None:
        guide_idx = self.indexes[self.guide]
        follower_idx = self.indexes[1 - self.guide]
        e_lo = guide_idx.nodes.mbb_lo[g_node]
        e_hi = guide_idx.nodes.mbb_hi[g_node]

        self._read_descriptor_page(guide_idx.nodes.desc_page_ids[g_node])
        g_units = guide_idx.nodes.units[g_node]

        f_units = self._explore(
            candidate_units,
            follower_idx, cand_nodes, e_lo, e_hi, self.stats, self.meta_pool,
        )
        if f_units.size == 0:
            return
        f_lo = follower_idx.units.page_lo[f_units]
        f_hi = follower_idx.units.page_hi[f_units]
        f_volumes = np.maximum(column_product(f_hi - f_lo), _EPS_VOLUME)

        # Phase 1 — plan: filter each guide unit's candidates and pick
        # its granularity (unit batch vs single elements), metadata only.
        plan: list[tuple[int, IntArray, bool]] = []
        u_lo = guide_idx.units.page_lo[g_units]
        u_hi = guide_idx.units.page_hi[g_units]
        self.stats.metadata_comparisons += len(g_units) * len(f_units)
        hits = _cross_hits(u_lo, u_hi, f_lo, f_hi)
        used_units = int(hits.sum())
        u_volumes = np.maximum(column_product(u_hi - u_lo), _EPS_VOLUME)
        for gi in np.flatnonzero(hits.any(axis=1)).tolist():
            gu = g_units[gi]
            hit = hits[gi]
            cand = f_units[hit]
            v_f_unit = float(f_volumes[hit].mean())
            decision = self.thresholds.decide_unit(
                float(u_volumes[gi]) / v_f_unit
            )
            split = decision.action == "split"
            if split:
                self.splits_to_element += 1
                self.thresholds.note_transformation()
            plan.append((int(gu), cand, split))
        self.thresholds.record_filter_fraction(
            1.0 - used_units / (len(f_units) * max(len(g_units), 1))
        )
        if not plan:
            return

        # Phase 2 — prefetch the guide pages in one sorted (sequential)
        # run; the per-unit joins below then hit the buffer pool.
        g_page_ids = guide_idx.units.element_page_ids[
            [gu for gu, _, _ in plan]
        ].tolist()
        self._read_element_pages(sorted(g_page_ids))

        # Phase 3 — determine exactly which follower pages are needed.
        # Unit-batch joins need every candidate page; element-level
        # pivots need only the pages whose page MBB intersects some
        # individual element ("retrieving only exactly the data
        # needed", Section III).
        needed_f: set[int] = set()
        element_masks: dict[int, BoolArray] = {}
        splits = [k for k, (_, _, split) in enumerate(plan) if split]
        split_pages = self._read_element_pages([g_page_ids[k] for k in splits])
        for gu, cand, split in plan:
            if not split:
                needed_f.update(
                    follower_idx.units.element_page_ids[cand].tolist()
                )
        for k, g_page in zip(splits, split_pages):
            gu, cand, _ = plan[k]
            self.stats.metadata_comparisons += len(g_page) * len(cand)
            touched = _cross_hits(
                g_page.boxes.lo,
                g_page.boxes.hi,
                follower_idx.units.page_lo[cand],
                follower_idx.units.page_hi[cand],
            ).any(axis=0)
            element_masks[gu] = touched
            needed_f.update(
                follower_idx.units.element_page_ids[cand[touched]].tolist()
            )

        # Phase 4 — prefetch the follower pages in one sorted run.
        self._read_element_pages(sorted(needed_f))

        # Phase 5 — join each planned unit from the warm pool.
        for (gu, cand, split), g_page_id in zip(plan, g_page_ids):
            if split:
                (g_page,) = self._read_element_pages([g_page_id])
                self._process_elements(
                    g_page, follower_idx, cand[element_masks[gu]]
                )
            else:
                f_page_ids = np.sort(follower_idx.units.element_page_ids[cand])
                g_page, *f_pages = self._read_element_pages(
                    [g_page_id, *f_page_ids.tolist()]
                )
                self._join_pages([g_page], f_pages)

    # ------------------------------------------------------------------
    # Element-granularity processing — extreme skew (level 2 pivot)
    # ------------------------------------------------------------------
    def _process_elements(
        self,
        g_page: ElementPage,
        follower_idx: TransformersIndex,
        cand_units: IntArray,
    ) -> None:
        """Use single guide elements as pivots against candidate units.

        "It splits a space unit into its spatial elements, thus using a
        spatial element as pivot (level 2) while using the space unit
        as a level of granularity for the follower (level 1)."
        """
        self.stats.metadata_comparisons += len(g_page) * len(cand_units)
        hits = _cross_hits(
            g_page.boxes.lo,
            g_page.boxes.hi,
            follower_idx.units.page_lo[cand_units],
            follower_idx.units.page_hi[cand_units],
        )
        # One-box segments: their grid has one cell, so the kernel tests
        # the element against the whole page.  ``nonzero`` walks the
        # (element, unit) hits element by element, units ascending.
        e_hit, u_hit = np.nonzero(hits)
        pages = self._read_element_pages(
            follower_idx.units.element_page_ids[cand_units[u_hit]].tolist()
        )
        f_rows = np.array(list(map(len, pages)), dtype=np.intp)
        if not f_rows.all():
            keep = np.flatnonzero(f_rows)
            e_hit, f_rows = e_hit[keep], f_rows[keep]
            pages = [pages[k] for k in keep.tolist()]
        # Queued as batches cut where one segment at a time would have
        # launched the queue: after the segment that reaches the budget.
        start, n = 0, len(pages)
        while start < n:
            queued = np.cumsum(1 + f_rows[start:])
            cut = int(np.searchsorted(queued, _QUEUE_ROW_BUDGET - self.queued_rows))
            stop = start + min(cut + 1, n - start)
            self._enqueue(
                [g_page.element_ranges(e_hit[start:stop])],
                ElementPage.row_ranges(pages[start:stop]),
                np.ones(stop - start, dtype=np.intp),
                f_rows[start:stop],
                int(queued[stop - start - 1]),
            )
            start = stop
