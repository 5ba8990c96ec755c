"""Batch execution: many joins on one long-lived workspace, one report.

The paper's robustness claim is an aggregate statement — TRANSFORMERS
stays fast across *many* workloads while fixed strategies degrade on
some of them — so the repro needs to drive many joins and account them
together.  :class:`BatchExecutor` does that: it accepts a list of
:class:`JoinRequest` objects (dataset pair, algorithm name or
``"auto"``, parameters) and runs them in order, inline, merging the
per-run :class:`~repro.engine.report.RunReport` objects into a
:class:`BatchReport` with aggregate I/O/CPU cost and a per-algorithm
breakdown.

An executor keeps one :class:`~repro.engine.workspace.SpatialWorkspace`
for its lifetime, so a request reuses, by
:attr:`Dataset.fingerprint <repro.joins.base.Dataset.fingerprint>`, the
per-dataset indexes (TRANSFORMERS, R-TREE, GIPSY) and the sketches that
earlier requests built — the paper's index-reuse argument (Section
VII-C1) — within the workspace's LRU bound
(:data:`EXECUTOR_CACHED_INDEXES`).  A reused side reports
``reused_a`` / ``reused_b`` and writes no index page; pairs and the
join-phase counters are those of a cold join.  The paper's
nothing-shared, cold-cache protocol is ``SpatialWorkspace().join``.
An executor serves one caller at a time.

A failure inside one request (bad parameters, an algorithm raising) is
captured in that request's :class:`RequestOutcome`; the rest of the
batch completes normally.  Both service tiers run their cache misses
through this executor, one per shard; parallelism lives one level up,
in the sharded tier (:mod:`repro.service.sharded`), whose shard
processes each run one executor.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.joins.base import CostModel, Dataset, SpatialJoinAlgorithm
from repro.storage.disk import DiskModel

if TYPE_CHECKING:
    from repro.geometry.box import Box


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def _side_name(side: Dataset | str) -> str:
    """Display name of a request side (a dataset, or a catalog name)."""
    return side if isinstance(side, str) else str(side.name)


@dataclass(frozen=True)
class JoinRequest:
    """One join to run: inputs, algorithm, planner parameters.

    ``a`` / ``b`` are concrete :class:`~repro.joins.base.Dataset`
    objects, or catalog names (``str``) that a service tier resolves to
    datasets before execution.  ``algorithm`` is a registry name,
    ``"auto"``, or a pre-configured
    :class:`~repro.joins.base.SpatialJoinAlgorithm` instance.  ``space``
    and ``parameters`` are planner inputs and therefore only apply to
    registry names (matching ``SpatialWorkspace.join``).

    ``within=d`` requests a Chebyshev distance join (see
    ``SpatialWorkspace.join``); ``None`` is the plain intersection
    join.
    """

    a: Dataset | str
    b: Dataset | str
    algorithm: str | SpatialJoinAlgorithm = "auto"
    space: Box | None = None
    parameters: dict[str, object] | None = None
    label: str = ""
    within: float | None = None

    def describe(self) -> str:
        """Short human-readable identification for reports and errors."""
        if self.label:
            return self.label
        algo = (
            self.algorithm
            if isinstance(self.algorithm, str)
            else self.algorithm.name
        )
        base = f"{algo}({_side_name(self.a)}, {_side_name(self.b)})"
        if self.within is not None:
            return f"{base} within={self.within:g}"
        return base


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class RequestOutcome:
    """What happened to one request: a report, or a captured failure."""

    index: int
    label: str
    report: RunReport | None = None
    error: str | None = None
    error_type: str | None = None
    #: End-to-end wall time of this request (index builds + join); the
    #: service tiers record it as the miss latency.
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the request produced a report."""
        return self.report is not None


@dataclass
class BatchReport:
    """Merged result of one batch: outcomes plus aggregate accounting."""

    outcomes: list[RequestOutcome]
    cost_model: CostModel = field(default_factory=CostModel)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def reports(self) -> list[RunReport]:
        """Successful reports, in request order."""
        return [o.report for o in self.outcomes if o.report is not None]

    @property
    def failures(self) -> list[RequestOutcome]:
        """Outcomes whose request failed."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        """True when every request succeeded."""
        return not self.failures

    def raise_failures(self) -> None:
        """Raise ``RuntimeError`` summarising failures, if any."""
        if self.failures:
            lines = [
                f"request {o.index} ({o.label}): {o.error_type}: {o.error}"
                for o in self.failures
            ]
            raise RuntimeError(
                f"{len(self.failures)} of {len(self.outcomes)} batch "
                "requests failed:\n" + "\n".join(lines)
            )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_io_cost(self) -> float:
        """Summed simulated join-phase I/O time across requests."""
        return sum(r.join_io_cost for r in self.reports)

    @property
    def total_cpu_cost(self) -> float:
        """Summed simulated join-phase CPU time across requests."""
        return sum(r.join_cpu_cost for r in self.reports)

    @property
    def total_cost(self) -> float:
        """Summed end-to-end simulated time (indexing as charged + join)."""
        return sum(r.total_cost(self.cost_model) for r in self.reports)

    @property
    def total_pairs(self) -> int:
        """Summed result pairs across successful requests."""
        return sum(r.pairs_found for r in self.reports)

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-algorithm request-latency summary (count/mean/p50/p90/p99).

        Latencies are the per-request end-to-end walls; failed requests
        (no report, hence no algorithm) are excluded.  Empty batches
        return an empty mapping.
        """
        from repro.metrics import latency_summary

        samples: dict[str, list[float]] = {}
        for outcome in self.outcomes:
            if outcome.report is not None:
                samples.setdefault(outcome.report.algorithm, []).append(
                    outcome.wall_seconds
                )
        return {
            name: latency_summary(walls)
            for name, walls in sorted(samples.items())
        }

    def by_algorithm(self) -> dict[str, dict[str, float]]:
        """Aggregate accounting grouped by executed algorithm."""
        out: dict[str, dict[str, float]] = {}
        for report in self.reports:
            row = out.setdefault(
                report.algorithm,
                {
                    "runs": 0,
                    "pairs": 0,
                    "index_cost": 0.0,
                    "join_cost": 0.0,
                    "join_io": 0.0,
                    "join_cpu": 0.0,
                    "tests": 0,
                },
            )
            row["runs"] += 1
            row["pairs"] += report.pairs_found
            row["index_cost"] += report.index_cost
            row["join_cost"] += report.join_cost
            row["join_io"] += report.join_io_cost
            row["join_cpu"] += report.join_cpu_cost
            row["tests"] += report.intersection_tests
        return out

    def summary(self) -> dict[str, float]:
        """Flat batch-level reporting row."""
        return {
            "requests": len(self.outcomes),
            "failed": len(self.failures),
            "pairs": self.total_pairs,
            "io_cost": round(self.total_io_cost, 1),
            "cpu_cost": round(self.total_cpu_cost, 1),
            "total_cost": round(self.total_cost, 1),
        }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def _concrete(side: Dataset | str) -> Dataset:
    """The dataset of a request side; names must be resolved upstream."""
    if isinstance(side, str):
        raise TypeError(
            f"catalog name {side!r} reached the executor unresolved; "
            "submit the request through a service, or pass the Dataset"
        )
    return side


def _execute_request(
    index: int, request: JoinRequest, workspace: SpatialWorkspace
) -> RequestOutcome:
    """Run one request on ``workspace``, capturing any failure."""
    outcome = RequestOutcome(index=index, label=request.describe())
    start = time.perf_counter()
    try:
        # space/parameters are forwarded even for instance algorithms:
        # the workspace rejects that combination, and the resulting
        # ValueError must surface as this request's failure rather
        # than being silently dropped here.
        outcome.report = workspace.join(
            _concrete(request.a),
            _concrete(request.b),
            algorithm=request.algorithm,
            space=request.space,
            parameters=request.parameters,
            within=request.within,
        )
    except Exception as exc:
        outcome.error = f"{exc}\n{traceback.format_exc()}"
        outcome.error_type = type(exc).__name__
    outcome.wall_seconds = time.perf_counter() - start
    return outcome


#: Index-cache bound of an executor's workspace (its sketch and
#: enlarged-dataset memos share it).  Picked by measuring the serve
#: workloads' ``peak_rss_mb``; a shard holds at most this many indexes.
EXECUTOR_CACHED_INDEXES = 16


class BatchExecutor:
    """Runs batches of join requests inline on one long-lived workspace.

    ``disk_model`` / ``cost_model`` configure that workspace.  Its
    index cache holds at most :data:`EXECUTOR_CACHED_INDEXES` indexes,
    so a later request reuses what an earlier one built and the
    executor's memory stays bounded however many requests it runs.
    An executor serves one caller at a time: the service tiers call
    :meth:`run` under their shard's lock.
    """

    def __init__(
        self,
        *,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.workspace = SpatialWorkspace(
            disk_model=disk_model,
            cost_model=self.cost_model,
            max_cached_indexes=EXECUTOR_CACHED_INDEXES,
        )

    def run(self, requests: Iterable[JoinRequest]) -> BatchReport:
        """Execute every request in order; failures stay per-request."""
        outcomes = [
            _execute_request(i, req, self.workspace)
            for i, req in enumerate(requests)
        ]
        return BatchReport(outcomes=outcomes, cost_model=self.cost_model)
