"""Join planning: resolve ``algorithm="auto"`` and per-algorithm knobs.

The paper's headline claim is robustness on **non-uniform** data — the
winning join adapts to local density instead of relying on global,
hand-tuned parameters — so the planner must not itself be a global,
hand-tuned parameter.  Version 2 makes ``"auto"`` **cost-based**:

* each dataset is reduced to a :class:`~repro.stats.DatasetSketch`
  (density grid, quadtree-refined heavy cells, average extents);
* every plannable algorithm with an
  :meth:`~repro.joins.base.SpatialJoinAlgorithm.estimate_join_cost`
  hook predicts its cost for the pair, and the cheapest prediction
  wins;
* ``plan_join(..., explain=True)`` returns a :class:`PlanReport` with
  the whole ranked candidate list, the selectivity estimate and its
  documented error band, so a plan is *explainable*, not an oracle.

Two datasets with equal cardinalities but different clustering can
plan differently.  When no candidate can be costed the plan is
TRANSFORMERS, the paper's robust default.

The planner also computes the parameters each baseline would otherwise
need hand-wired — PBSM's shared space and its grid resolution sweep
stand-in — and packages them as
:class:`PlanHints` for the registry factories.  This module owns the
experiment-wide storage defaults (:data:`EXPERIMENT_PAGE_SIZE`,
:func:`experiment_disk_model`, :func:`pbsm_resolution`) that
historically lived in ``repro.harness.runner``; the harness re-exports
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.registry import (
    algorithm_spec,
    available_algorithms,
    create_algorithm,
)
from repro.geometry.box import Box
from repro.joins.base import Dataset, SpatialJoinAlgorithm
from repro.storage.disk import DiskModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.estimate import CandidateCost, Estimator
    from repro.stats.sketch import DatasetSketch

#: Default page size for scaled-down experiments.  The paper uses 8 KB
#: pages on datasets of 10⁸ elements; scaling both the datasets (to
#: ~10⁴) and the page (to 1 KB ≈ 18 elements) keeps the page count and
#: hierarchy depth in a realistic regime.  See DESIGN.md §2.
EXPERIMENT_PAGE_SIZE = 1024


def experiment_disk_model(page_size: int = EXPERIMENT_PAGE_SIZE) -> DiskModel:
    """The disk model used by all experiments (one shared definition)."""
    return DiskModel(page_size=page_size)


def pbsm_resolution(n_total: int, page_size: int = EXPERIMENT_PAGE_SIZE) -> int:
    """PBSM grid resolution heuristic standing in for the paper's sweep.

    The paper picks the number of partitions per dataset pair with a
    parameter sweep (10³ cells for 10⁸-element synthetic data, 20³ for
    neuroscience).  The balance it strikes — enough elements per cell
    to fill pages, few enough to keep the in-memory join cheap — scales
    as the cube root of elements per cell; we target about four data
    pages per cell and clamp to a sane range.
    """
    from repro.storage.page import element_page_capacity

    per_cell = 4 * element_page_capacity(page_size, 3)
    cells = max(1, n_total // per_cell)
    return max(2, min(30, round(cells ** (1.0 / 3.0))))


@dataclass
class PlanHints:
    """Planner-resolved inputs handed to registry factories.

    ``space`` is the extent shared by both join inputs (PBSM partitions
    it identically for A and B); ``parameters`` carries the
    per-algorithm knobs the planner resolved, read back through
    :meth:`param`.
    """

    space: Box | None
    n_a: int
    n_b: int
    page_size: int = EXPERIMENT_PAGE_SIZE
    parameters: dict[str, object] = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        """Combined cardinality of the pair."""
        return self.n_a + self.n_b

    def param(self, key: str, default: object = None) -> object:
        """One resolved parameter, with a factory-side default."""
        return self.parameters.get(key, default)


@dataclass(frozen=True)
class JoinPlan:
    """The planner's decision for one join: what to run and why."""

    requested: str
    algorithm: str
    reason: str
    hints: PlanHints

    def create(self) -> SpatialJoinAlgorithm:
        """Instantiate the resolved algorithm from the registry."""
        return create_algorithm(self.algorithm, self.hints)


def shared_space(a: Dataset, b: Dataset) -> Box:
    """The extent the space-partitioning baselines must agree on.

    Empty inputs have no MBB, so their side is ignored; when both sides
    are empty any extent works (there is nothing to partition) and a
    unit box keeps the grid constructors happy.
    """
    if len(a) == 0 and len(b) == 0:
        ndim = a.ndim
        return Box((0.0,) * ndim, (1.0,) * ndim)
    if len(a) == 0:
        return b.boxes.mbb()
    if len(b) == 0:
        return a.boxes.mbb()
    return a.boxes.mbb().union(b.boxes.mbb())


@dataclass(frozen=True)
class PlanReport:
    """An explainable planning decision: the plan plus its evidence.

    Returned by :func:`plan_join` / :func:`plan_join_sketched` under
    ``explain=True``.  ``candidates`` is the full ranked list of
    per-algorithm cost predictions (cheapest first; empty when the
    statistics layer did not run), ``est_pairs``/``est_tests`` are the
    selectivity and comparison estimates for the *chosen* algorithm,
    and ``error_band`` records the documented multiplicative accuracy
    contract of the pair estimate
    (:data:`~repro.stats.estimate.ESTIMATE_ERROR_BAND`).  The report
    contains only scalars and small dataclasses, so it pickles across
    process boundaries inside a
    :class:`~repro.engine.report.RunReport`.
    """

    plan: JoinPlan
    candidates: tuple["CandidateCost", ...] = ()
    est_pairs: float | None = None
    est_tests: float | None = None
    error_band: float | None = None
    #: True when the decision came from sketch-based cost estimates
    #: (False: explicit request without ``explain``, or empty input).
    stats_used: bool = False

    # Proxies so a PlanReport quacks like the JoinPlan it wraps.
    @property
    def requested(self) -> str:
        """The algorithm name the caller asked for."""
        return self.plan.requested

    @property
    def algorithm(self) -> str:
        """The resolved algorithm name."""
        return self.plan.algorithm

    @property
    def reason(self) -> str:
        """Why the planner chose it."""
        return self.plan.reason

    @property
    def hints(self) -> PlanHints:
        """The planner-resolved parameters."""
        return self.plan.hints

    def create(self) -> SpatialJoinAlgorithm:
        """Instantiate the resolved algorithm from the registry."""
        return self.plan.create()

    def candidate(self, algorithm: str) -> "CandidateCost | None":
        """The ranked entry for one algorithm name, if it was costed."""
        key = algorithm.strip().lower()
        for entry in self.candidates:
            if entry.algorithm == key:
                return entry
        return None

    def summary(self) -> dict[str, object]:
        """Flat JSON-friendly view (used by examples and benchmarks)."""
        return {
            "requested": self.requested,
            "algorithm": self.algorithm,
            "reason": self.reason,
            "stats_used": self.stats_used,
            "est_pairs": self.est_pairs,
            "est_tests": self.est_tests,
            "error_band": self.error_band,
            "candidates": [
                {
                    "algorithm": c.algorithm,
                    "total": c.total,
                    "index_io": c.index_io,
                    "join_io": c.join_io,
                    "join_cpu": c.join_cpu,
                }
                for c in self.candidates
            ],
        }


def _rank_candidates(
    hints: PlanHints,
    sketches: "tuple[DatasetSketch, DatasetSketch]",
    estimator: "Estimator | None",
    disk_model: DiskModel | None,
    cost_model: "object | None",
) -> tuple[tuple["CandidateCost", ...], float]:
    """(cheapest-first candidate costs, pair estimate) for the pair."""
    from repro.joins.base import CostModel
    from repro.stats.estimate import (
        CandidateCost,
        build_cost_profile,
    )

    sketch_a, sketch_b = sketches
    space_volume = None
    if hints.space is not None:
        space_volume = max(hints.space.volume(), 1e-12)
    disk = disk_model or experiment_disk_model(hints.page_size)
    cost = cost_model or CostModel()
    profile = build_cost_profile(
        sketch_a,
        sketch_b,
        page_size=hints.page_size,
        resolution=int(hints.param("resolution", 10)),
        space_volume=space_volume,
        seq_read_cost=disk.seq_read_cost,
        random_read_cost=disk.random_read_cost,
        write_cost=disk.write_cost,
        intersection_test_cost=cost.intersection_test_cost,
        metadata_test_cost=cost.metadata_test_cost,
        estimator=estimator,
    )
    ranked: list[CandidateCost] = []
    for name in available_algorithms():
        spec = algorithm_spec(name)
        if not spec.plannable:
            continue
        breakdown = spec.factory(hints).estimate_join_cost(profile)
        if breakdown is None:
            continue
        ranked.append(CandidateCost.from_breakdown(name, breakdown))
    # Ties break on name so the ranking is deterministic everywhere.
    ranked.sort(key=lambda c: (c.total, c.algorithm))
    return tuple(ranked), profile.est_pairs


def _plan(
    hints: PlanHints,
    algorithm: str,
    *,
    explain: bool,
    sketches: "tuple[DatasetSketch, DatasetSketch] | None",
    estimator: "Estimator | None",
    disk_model: DiskModel | None = None,
    cost_model: "object | None" = None,
) -> "JoinPlan | PlanReport":
    """Shared resolution core of the dataset- and sketch-based entries."""
    requested = algorithm.strip().lower()
    candidates: tuple = ()
    pair_estimate: float | None = None

    if requested == "auto":
        if hints.n_a == 0 or hints.n_b == 0:
            resolved = "transformers"
            reason = (
                "one or both inputs are empty: the join is trivially "
                "empty, so the robust default is kept"
            )
        else:
            if sketches is not None:
                candidates, pair_estimate = _rank_candidates(
                    hints, sketches, estimator, disk_model, cost_model
                )
            if candidates:
                best = candidates[0]
                resolved = best.algorithm
                runner_up = (
                    f"; runner-up {candidates[1].algorithm} at "
                    f"{candidates[1].total:.0f}"
                    if len(candidates) > 1
                    else ""
                )
                reason = (
                    f"lowest estimated cost ({best.total:.0f}) of "
                    f"{len(candidates)} costed candidates"
                    f"{runner_up}"
                )
            else:
                resolved = "transformers"
                reason = (
                    "robust default: no candidate could be costed; "
                    "TRANSFORMERS adapts roles and layout at run time "
                    "(paper Table I, Figs. 10-12)"
                )
    else:
        resolved = algorithm_spec(requested).name
        reason = "requested explicitly"
        if explain and sketches is not None and hints.n_a and hints.n_b:
            # Cost the field anyway so an explicit request can be
            # compared against what "auto" would have picked.
            candidates, pair_estimate = _rank_candidates(
                hints, sketches, estimator, disk_model, cost_model
            )
    stats_used = bool(candidates)
    # Validate eagerly so a typo fails at plan time, not join time.
    algorithm_spec(resolved)
    plan = JoinPlan(
        requested=requested, algorithm=resolved, reason=reason, hints=hints
    )
    if not explain:
        return plan
    chosen = next(
        (c for c in candidates if c.algorithm == resolved), None
    )
    est_pairs = est_tests = error_band = None
    if stats_used:
        from repro.stats.estimate import ESTIMATE_ERROR_BAND

        error_band = ESTIMATE_ERROR_BAND
        est_pairs = pair_estimate
        est_tests = chosen.est_tests if chosen is not None else None
    return PlanReport(
        plan=plan,
        candidates=candidates,
        est_pairs=est_pairs,
        est_tests=est_tests,
        error_band=error_band,
        stats_used=stats_used,
    )


def _build_hints(
    n_a: int,
    n_b: int,
    space: Box,
    page_size: int,
    parameters: dict[str, object] | None,
) -> PlanHints:
    hints = PlanHints(space=space, n_a=n_a, n_b=n_b, page_size=page_size)
    hints.parameters["resolution"] = pbsm_resolution(
        hints.n_total, page_size
    )
    if parameters:
        hints.parameters.update(parameters)
    return hints


def plan_join(
    a: Dataset,
    b: Dataset,
    algorithm: str = "auto",
    *,
    space: Box | None = None,
    page_size: int = EXPERIMENT_PAGE_SIZE,
    parameters: dict[str, object] | None = None,
    explain: bool = False,
    sketches: "tuple[DatasetSketch, DatasetSketch] | None" = None,
    estimator: "Estimator | None" = None,
    disk_model: DiskModel | None = None,
    cost_model: "object | None" = None,
) -> "JoinPlan | PlanReport":
    """Resolve an algorithm name (possibly ``"auto"``) into a plan.

    ``"auto"`` is resolved **cost-based** by default: both datasets are
    sketched (pass ``sketches`` to reuse cached ones), every plannable
    algorithm's cost hook predicts its cost for the pair, and the
    cheapest prediction wins.

    ``explain=True`` returns a :class:`PlanReport` carrying the ranked
    candidate costs, the selectivity estimate and its documented error
    band; otherwise a bare :class:`JoinPlan`.

    ``space`` overrides the shared extent (experiments pass the full
    generated space; the default is the tight union of both MBBs).
    ``parameters`` overrides individual resolved knobs (e.g.
    ``{"resolution": 8}`` to pin PBSM's grid).  ``estimator`` swaps
    the selectivity estimator (any
    :class:`~repro.stats.estimate.Estimator`).
    """
    hints = _build_hints(
        len(a),
        len(b),
        space if space is not None else shared_space(a, b),
        page_size,
        parameters,
    )
    needs_sketches = (
        sketches is None
        and len(a) > 0
        and len(b) > 0
        and (algorithm.strip().lower() == "auto" or explain)
    )
    if needs_sketches:
        from repro.stats.sketch import build_sketch

        sketches = (build_sketch(a), build_sketch(b))
    return _plan(
        hints,
        algorithm,
        explain=explain,
        sketches=sketches,
        estimator=estimator,
        disk_model=disk_model,
        cost_model=cost_model,
    )


def plan_join_sketched(
    sketch_a: "DatasetSketch",
    sketch_b: "DatasetSketch",
    algorithm: str = "auto",
    *,
    space: Box | None = None,
    page_size: int = EXPERIMENT_PAGE_SIZE,
    parameters: dict[str, object] | None = None,
    explain: bool = False,
    estimator: "Estimator | None" = None,
    disk_model: DiskModel | None = None,
    cost_model: "object | None" = None,
) -> "JoinPlan | PlanReport":
    """Plan a join from sketches alone — no raw data access.

    This is how the service layer plans: the catalog stores one sketch
    per content fingerprint, so planning a registered pair touches a
    few KB of statistics instead of the datasets.  The shared extent
    defaults to the union of both sketch MBBs (identical to
    :func:`shared_space` over the original datasets).  As with
    :func:`plan_join`, ``explain=True`` selects the
    :class:`PlanReport` return shape.
    """
    if space is None:
        space = _sketch_union_space(sketch_a, sketch_b)
    hints = _build_hints(
        sketch_a.n, sketch_b.n, space, page_size, parameters
    )
    sketches = None
    if sketch_a.n > 0 and sketch_b.n > 0:
        sketches = (sketch_a, sketch_b)
    return _plan(
        hints,
        algorithm,
        explain=explain,
        sketches=sketches,
        estimator=estimator,
        disk_model=disk_model,
        cost_model=cost_model,
    )


def _sketch_union_space(
    sketch_a: "DatasetSketch", sketch_b: "DatasetSketch"
) -> Box:
    """The sketch-level equivalent of :func:`shared_space`."""
    if sketch_a.is_empty and sketch_b.is_empty:
        ndim = max(sketch_a.ndim, 1)
        return Box((0.0,) * ndim, (1.0,) * ndim)
    if sketch_a.is_empty:
        return Box(tuple(sketch_b.lo), tuple(sketch_b.hi))
    if sketch_b.is_empty:
        return Box(tuple(sketch_a.lo), tuple(sketch_a.hi))
    a = Box(tuple(sketch_a.lo), tuple(sketch_a.hi))
    return a.union(Box(tuple(sketch_b.lo), tuple(sketch_b.hi)))
