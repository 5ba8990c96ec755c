"""The recommended entry point: a workspace owning disk, cache and plans.

:class:`SpatialWorkspace` bundles everything a join run used to require
hand-wiring — a :class:`~repro.storage.disk.SimulatedDisk`, buffer
pools, the PBSM resolution heuristic, algorithm construction — behind
two calls::

    ws = SpatialWorkspace()
    report = ws.join(a, b)                  # planner picks the algorithm
    hits = ws.range_query(a, query_box)     # reuses a's index

The workspace keeps an **index cache** keyed by content
(:attr:`Dataset.fingerprint <repro.joins.base.Dataset.fingerprint>`):
joining the same data again — the same object or any equal-content
copy, whatever its name — with an algorithm whose index is per-dataset
(all of them except PBSM) reuses the built index instead of rebuilding
it, so the second join writes zero additional index pages for that
side — the paper's index-reuse argument (Section VII-C1) made
observable.  Entries hold indexes, never datasets, and the cache is
bounded (``max_cached_indexes``, LRU eviction with an
``index_evictions`` counter) so long-lived workspaces do not keep every
index they ever built.

Measurement protocol matches the paper (and ``harness.runner``): index
builds are accounted per phase, then disk statistics are reset so the
join phase starts with cold caches.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.core.indexing import TransformersIndex
from repro.core.query import range_query as _transformers_range_query
from repro.engine.planner import (
    JoinPlan,
    experiment_disk_model,
    plan_join,
)
from repro.engine.registry import algorithm_spec, spec_for_instance
from repro.engine.report import RunReport
from repro.geometry.box import Box
from repro.geometry.slots import SlotPickleMixin
from repro.joins.base import CostModel, Dataset, JoinStats, SpatialJoinAlgorithm
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk

if TYPE_CHECKING:
    from repro.stats.sketch import DatasetSketch


class EmptyIndex(SlotPickleMixin):
    """No-op index handle for a zero-element dataset.

    Empty datasets have no MBB, so none of the real index builders can
    run on them; every single-dataset operation on an empty input is a
    trivial no-op (no pages written, no hits possible), and this handle
    records that outcome.
    """

    __slots__ = ("dataset_name", "ndim")

    def __init__(self, dataset_name: str, ndim: int) -> None:
        self.dataset_name = dataset_name
        self.ndim = ndim

    @property
    def num_elements(self) -> int:
        """Always zero: the indexed dataset is empty."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmptyIndex(dataset_name={self.dataset_name!r})"


class _CachedIndex(SlotPickleMixin):
    """One cached per-dataset index and its build provenance."""

    __slots__ = ("handle", "build_stats", "pages_written", "pages")

    def __init__(
        self,
        handle: object,
        build_stats: JoinStats,
        pages_written: int,
        pages: range = range(0),
    ) -> None:
        self.handle = handle
        self.build_stats = build_stats
        self.pages_written = pages_written
        #: The page-id run the build allocated; released with the entry.
        self.pages = pages


def algorithm_signature(algo: SpatialJoinAlgorithm) -> str:
    """Stable cache signature of a configured algorithm instance.

    Private attributes are skipped: they hold runtime helpers whose
    reprs are not value-based.  The signature keys the workspace's
    index cache and the service layer's result cache, so two instances
    with equal public configuration must produce equal signatures.
    """
    public = {
        k: v for k, v in vars(algo).items() if not k.startswith("_")
    }
    inner = ", ".join(f"{k}={public[k]!r}" for k in sorted(public))
    return f"{algo.name}({inner})"


def _require_dataset(dataset: object, method: str) -> None:
    """Reject a dataset *name*: the workspace keys datasets by content."""
    if isinstance(dataset, str):
        raise TypeError(
            f"{method}() takes a Dataset, not the name {dataset!r}; "
            "names resolve in SpatialQueryService's catalog"
        )


class SpatialWorkspace:
    """Spatial-join engine: one disk, one index cache, one planner.

    Parameters
    ----------
    disk_model:
        Storage cost model; default is the experiments' 1 KB-page model.
    cost_model:
        CPU cost model used by the reports' simulated-time figures.
    max_cached_indexes:
        Upper bound on cached index handles.  The cache is LRU: when a
        new index would exceed the bound, the least recently used entry
        is evicted and its pages are released (a handle the caller
        still holds is dead).  ``None`` disables the bound.
        Without it, every joined dataset's index stays in memory for
        the workspace's lifetime.
    """

    #: Default LRU capacity of the index cache.
    DEFAULT_MAX_CACHED_INDEXES = 64

    def __init__(
        self,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
        max_cached_indexes: int | None = DEFAULT_MAX_CACHED_INDEXES,
    ) -> None:
        if max_cached_indexes is not None and max_cached_indexes < 1:
            raise ValueError("max_cached_indexes must be >= 1 or None")
        self.disk = SimulatedDisk(disk_model or experiment_disk_model())
        self.cost_model = cost_model or CostModel()
        self.max_cached_indexes = max_cached_indexes
        #: Keyed by ``(dataset.fingerprint, algorithm_signature(algo))``.
        self._cache: OrderedDict[tuple[str, str], _CachedIndex] = (
            OrderedDict()
        )
        self._evictions = 0
        #: Dataset sketches by fingerprint, cached alongside indexes
        #: (same LRU bound): planning the same content again reuses its
        #: statistics instead of re-scanning the boxes.
        self._sketches: OrderedDict[str, DatasetSketch] = OrderedDict()
        #: Enlarged-dataset memo for distance joins, keyed by
        #: ``(dataset.fingerprint, dataset.name, distance)`` (same LRU
        #: bound; the name is in the key because the copy's name
        #: derives from it).  Repeated ``within=d`` joins therefore
        #: reuse one enlarged ``Dataset`` — and through its content that
        #: copy's cached index — instead of enlarging and re-indexing
        #: each time.
        self._enlarged: OrderedDict[tuple[str, str, float], Dataset] = (
            OrderedDict()
        )

    @property
    def page_size(self) -> int:
        """Page size of the underlying simulated disk."""
        return self.disk.model.page_size

    @property
    def cached_index_count(self) -> int:
        """Number of indexes currently held by the cache."""
        return len(self._cache)

    @property
    def index_evictions(self) -> int:
        """Cache entries evicted by the LRU bound so far."""
        return self._evictions

    @property
    def cached_sketch_count(self) -> int:
        """Number of dataset sketches currently held by the cache."""
        return len(self._sketches)

    def sketch_for(self, dataset: Dataset) -> "DatasetSketch":
        """The (cached or freshly built) statistics sketch of a dataset.

        Sketches live beside indexes under the same LRU bound and are
        invalidated together by :meth:`forget`; the cost-based planner
        pulls them from here, so repeated ``"auto"`` joins over the
        same datasets never re-scan the boxes.
        """
        from repro.stats.sketch import build_sketch

        key = dataset.fingerprint
        sketch = self._sketches.get(key)
        if sketch is not None:
            self._sketches.move_to_end(key)
            return sketch
        sketch = self._sketches[key] = build_sketch(dataset)
        if self.max_cached_indexes is not None:
            while len(self._sketches) > self.max_cached_indexes:
                self._sketches.popitem(last=False)
        return sketch

    def _enlarged_for(self, dataset: Dataset, within: float) -> Dataset:
        """The memoised enlarged copy of ``dataset`` for a ``within`` join.

        Zero is the identity (no copy, no memo entry), so a
        ``within=0.0`` join sees the *same* dataset object — and
        therefore the same index-cache entries — as a plain
        intersection join.
        """
        from repro.joins.distance import enlarged_dataset

        distance = float(within)
        if distance == 0.0:
            return dataset
        key = (dataset.fingerprint, dataset.name, distance)
        grown = self._enlarged.get(key)
        if grown is not None:
            self._enlarged.move_to_end(key)
            return grown
        grown = self._enlarged[key] = enlarged_dataset(dataset, distance)
        if self.max_cached_indexes is not None:
            while len(self._enlarged) > self.max_cached_indexes:
                self._enlarged.popitem(last=False)
        return grown

    def drop_indexes(self) -> None:
        """Forget every cached index and release its pages.

        Explicit drops are not counted as evictions.
        """
        for entry in self._cache.values():
            self.disk.release(entry.pages)
        self._cache.clear()
        self._sketches.clear()
        self._enlarged.clear()

    def forget(self, dataset: Dataset) -> int:
        """Drop every cached index (and sketch) of one dataset's content.

        Returns how many index entries were dropped.  Used by the
        service layer when no catalog name serves the content any
        more: its indexes and statistics would otherwise hold pages
        until LRU pressure happens to evict them.  Any equal-content
        dataset names the same entries.  Explicit drops are not counted
        as evictions.
        """
        fingerprints = {dataset.fingerprint}
        self._sketches.pop(dataset.fingerprint, None)
        for key in [k for k in self._enlarged if k[0] == dataset.fingerprint]:
            # The enlarged copies' indexes die with the source.
            fingerprints.add(self._enlarged.pop(key).fingerprint)
        doomed = [key for key in self._cache if key[0] in fingerprints]
        for key in doomed:
            self.disk.release(self._cache.pop(key).pages)
        return len(doomed)

    def _cache_trim(self) -> None:
        """Evict least-recently-used overflow, releasing its pages."""
        if self.max_cached_indexes is not None:
            while len(self._cache) > self.max_cached_indexes:
                self.disk.release(self._cache.popitem(last=False)[1].pages)
                self._evictions += 1

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join(
        self,
        a: Dataset,
        b: Dataset,
        algorithm: str | SpatialJoinAlgorithm = "auto",
        *,
        space: Box | None = None,
        parameters: dict[str, object] | None = None,
        within: float | None = None,
    ) -> RunReport:
        """Join two datasets and return a structured :class:`RunReport`.

        ``algorithm`` is a registry name (see
        :func:`~repro.engine.registry.available_algorithms`), ``"auto"``
        to let the planner decide, or a pre-configured
        :class:`SpatialJoinAlgorithm` instance.  ``space`` and
        ``parameters`` are forwarded to the planner.

        ``within=d`` turns the join into a **distance join** under the
        Chebyshev (L∞) predicate via the paper's enlargement reduction
        (Section VIII): side ``a`` is enlarged by ``d`` and the join
        proceeds as a plain intersection join — through the same
        planner, index cache and reporting.  Enlarged datasets are
        memoised per ``(content, d)``, so repeated distance joins reuse
        the enlarged side's index; ``within=0.0`` is the identity and
        behaves exactly like the intersection join.  See
        :mod:`repro.joins.distance` for the predicate semantics.

        ``"auto"`` resolves through the cost-based planner (see
        :func:`~repro.engine.planner.plan_join`); the resulting
        :class:`~repro.engine.planner.JoinPlan` — candidate costs,
        selectivity estimate, error band — rides on ``report.plan``.
        To price an explicitly named algorithm against the whole
        candidate field, call ``plan_join(..., explain=True)``.

        Raises ``ValueError`` if the two datasets share element ids:
        the join result pairs ids up, so overlapping id spaces would
        silently corrupt pair semantics.
        """
        if within is not None:
            a = self._enlarged_for(a, within)
        self._validate_disjoint_ids(a, b)
        plan: JoinPlan | None = None
        if isinstance(algorithm, str):
            sketches = None
            if algorithm.strip().lower() == "auto" and len(a) and len(b):
                sketches = (self.sketch_for(a), self.sketch_for(b))
            plan = plan_join(
                a, b, algorithm, space=space,
                page_size=self.page_size, parameters=parameters,
                sketches=sketches,
                disk_model=self.disk.model, cost_model=self.cost_model,
            )
            algo = plan.create()
            reusable = algorithm_spec(plan.algorithm).reusable_index
        else:
            if space is not None or parameters:
                raise ValueError(
                    "space/parameters are planner inputs and "
                    "have no effect on a pre-configured instance; "
                    "configure the instance directly or pass a "
                    "registry name"
                )
            algo = algorithm
            spec = spec_for_instance(algo)
            reusable = spec.reusable_index if spec is not None else True

        # An empty side makes the answer trivially empty; several
        # algorithms (reasonably) refuse to index zero elements, so the
        # degenerate case is normalised here at the engine boundary.
        if len(a) == 0 or len(b) == 0:
            return self._empty_report(algo, a, b, plan)

        first_page = self.disk.num_pages
        try:
            handle_a, build_a, reused_a, written_a = self._index(
                algo, a, reuse=reusable
            )
            handle_b, build_b, reused_b, written_b = self._index(
                algo, b, reuse=reusable
            )
            # Cold caches for the join phase, as in the paper's protocol.
            self.disk.reset_stats()
            result = algo.join(handle_a, handle_b)
        finally:
            if not reusable:
                # A pair-level index (PBSM's grid) is cached nowhere:
                # its pages die with the join that built them.
                self.disk.release(range(first_page, self.disk.num_pages))
            self._cache_trim()
        return RunReport(
            algorithm=algo.name,
            dataset_a=a.name,
            dataset_b=b.name,
            n_a=len(a),
            n_b=len(b),
            result=result,
            build_a=build_a,
            build_b=build_b,
            plan=plan,
            reused_a=reused_a,
            reused_b=reused_b,
            index_pages_written_a=written_a,
            index_pages_written_b=written_b,
            cost_model=self.cost_model,
        )

    def _empty_report(
        self,
        algo: SpatialJoinAlgorithm,
        a: Dataset,
        b: Dataset,
        plan: JoinPlan | None,
    ) -> RunReport:
        """The (empty) result of joining against an empty dataset."""
        from repro.joins.base import JoinResult

        return RunReport(
            algorithm=algo.name,
            dataset_a=a.name,
            dataset_b=b.name,
            n_a=len(a),
            n_b=len(b),
            result=JoinResult(
                pairs=np.empty((0, 2), dtype=np.int64),
                stats=JoinStats(algorithm=algo.name, phase="join"),
            ),
            build_a=JoinStats(algorithm=algo.name, phase="index"),
            build_b=JoinStats(algorithm=algo.name, phase="index"),
            plan=plan,
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def build_index(
        self,
        dataset: Dataset,
        algorithm: str | SpatialJoinAlgorithm = "transformers",
    ) -> tuple[object, JoinStats]:
        """Build (or fetch from cache) one dataset's index.

        Returns ``(index_handle, build_stats)``; the handle is cached
        for subsequent :meth:`join` / :meth:`range_query` calls.  A
        pair-level index (PBSM's shared grid) only makes sense relative
        to a specific join partner, and a handle this cache does not
        hold would keep its pages for the workspace's lifetime, so
        such an algorithm raises ``ValueError`` before anything is
        built; :meth:`join` builds it.  A cached handle
        lives as long as its cache entry: LRU eviction
        (``max_cached_indexes``), :meth:`forget` and
        :meth:`drop_indexes` release its pages, after which reading
        through the handle raises ``KeyError``.

        An empty dataset has no MBB and nothing to index: the result is
        a no-op :class:`EmptyIndex` with zero-work build stats,
        mirroring the empty-join short-circuit at the :meth:`join`
        boundary.
        """
        _require_dataset(dataset, "build_index")
        algo, reusable = self._single_dataset_algorithm(dataset, algorithm)
        if len(dataset) == 0:
            return (
                EmptyIndex(dataset.name, dataset.ndim),
                JoinStats(algorithm=algo.name, phase="index"),
            )
        if not reusable:
            raise ValueError(
                f"{algo.name} builds a pair-level index that depends on "
                "the join partner; join() builds it"
            )
        handle, stats, _, _ = self._index(algo, dataset, reuse=True)
        self._cache_trim()
        return handle, stats

    def _single_dataset_algorithm(
        self, dataset: Dataset, algorithm: str | SpatialJoinAlgorithm
    ) -> tuple[SpatialJoinAlgorithm, bool]:
        """Resolve (algorithm, cacheable) for a one-dataset operation."""
        if isinstance(algorithm, str):
            # `space` is left to the planner: `shared_space` reduces to
            # the dataset's MBB here and, unlike `boxes.mbb()`,
            # tolerates empty datasets.
            plan = plan_join(
                dataset, dataset, algorithm if algorithm != "auto"
                else "transformers",
                page_size=self.page_size,
            )
            return plan.create(), algorithm_spec(plan.algorithm).reusable_index
        spec = spec_for_instance(algorithm)
        return algorithm, spec.reusable_index if spec is not None else True

    def _index(
        self, algo: SpatialJoinAlgorithm, dataset: Dataset, reuse: bool
    ) -> tuple[object, JoinStats, bool, int]:
        """Build or reuse one index; returns (handle, stats, reused, writes).

        Only a reusable index is keyed, so PBSM never reads the
        dataset's fingerprint.
        """
        if reuse:
            key = (dataset.fingerprint, algorithm_signature(algo))
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)  # refresh LRU recency
                return entry.handle, entry.build_stats, True, 0
        before = self.disk.stats.pages_written
        first_page = self.disk.num_pages
        handle, stats = algo.build_index(self.disk, dataset)
        written = self.disk.stats.pages_written - before
        if reuse:
            # Untrimmed: the caller trims when done with the handles
            # (a bound of 1 must not release a join's first side).
            self._cache[key] = _CachedIndex(
                handle, stats, written, range(first_page, self.disk.num_pages)
            )
        return handle, stats, False, written

    # ------------------------------------------------------------------
    # Range queries (index reuse beyond joins, Section VII-C1)
    # ------------------------------------------------------------------
    def range_query(self, dataset: Dataset, query: Box) -> np.ndarray:
        """Ids of the dataset's elements whose MBB intersects ``query``.

        Served from the dataset's cached TRANSFORMERS index (any
        configuration), building one if none exists yet — the same
        index a join would use, which is the reuse argument.  The query
        phase starts with cold caches; page I/O is observable on
        ``workspace.disk.stats``.

        Querying an empty dataset returns empty hits without building
        anything (empty datasets have no MBB and no index).
        """
        _require_dataset(dataset, "range_query")
        if len(dataset) == 0:
            if query.ndim != dataset.ndim:
                # Same validation the indexed path performs; an empty
                # dataset must not mask a caller's dimensionality bug.
                raise ValueError("query dimensionality mismatch")
            self.disk.reset_stats()
            return np.empty(0, dtype=np.int64)
        index = self._transformers_index(dataset)
        self.disk.reset_stats()
        return _transformers_range_query(index, query, BufferPool(self.disk))

    def _transformers_index(self, dataset: Dataset) -> TransformersIndex:
        """A TRANSFORMERS index for the dataset, cached or fresh."""
        entry = self._cache_find(dataset, TransformersIndex)
        if entry is not None:
            return entry.handle
        handle, _ = self.build_index(dataset, "transformers")
        return handle  # type: ignore[return-value]

    def _cache_find(
        self, dataset: Dataset, handle_type: type
    ) -> _CachedIndex | None:
        """Cache entry for a dataset's content, refreshing its LRU recency.

        Without the refresh, repeated range queries would never touch
        an index's recency and the LRU bound would evict the hottest
        entry first.
        """
        fingerprint = dataset.fingerprint
        for full_key, entry in self._cache.items():
            if full_key[0] == fingerprint and isinstance(
                entry.handle, handle_type
            ):
                self._cache.move_to_end(full_key)
                return entry
        return None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_disjoint_ids(a: Dataset, b: Dataset) -> None:
        """Reject joins whose inputs share element ids."""
        if not len(a) or not len(b):
            return
        if a.ids.max() < b.ids.min() or b.ids.max() < a.ids.min():
            return  # disjoint id ranges: the common id_offset layout
        overlap = np.intersect1d(a.ids, b.ids)
        if overlap.size:
            sample = ", ".join(str(int(v)) for v in overlap[:5])
            raise ValueError(
                f"datasets {a.name!r} and {b.name!r} share "
                f"{overlap.size} element id(s) (e.g. {sample}); join "
                "inputs must use disjoint id spaces — regenerate one "
                "side with an id_offset"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpatialWorkspace(pages={self.disk.num_pages}, "
            f"cached_indexes={len(self._cache)})"
        )
