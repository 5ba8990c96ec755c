"""Unified engine API: workspace, algorithm registry, planner, reports.

This subpackage is the recommended way to run spatial joins and range
queries::

    from repro import SpatialWorkspace

    ws = SpatialWorkspace()
    report = ws.join(a, b)                     # planner-resolved
    report = ws.join(a, c, algorithm="pbsm")   # explicit, no wiring
    hits = ws.range_query(a, box)              # reuses a's index

Batches of joins run through the executor, whose one long-lived
workspace lets a request reuse the indexes earlier requests built,
failures captured per request::

    from repro.engine import BatchExecutor, JoinRequest

    batch = BatchExecutor().run([JoinRequest(a, b, "pbsm"),
                                 JoinRequest(a, c, "auto")])
    print(batch.summary()["total_cost"])

* :mod:`~repro.engine.executor` — :class:`BatchExecutor`,
  :class:`JoinRequest`, :class:`RequestOutcome` and :class:`BatchReport`;
* :mod:`~repro.engine.registry` — string-named algorithm factories
  (:func:`available_algorithms`, :func:`register_algorithm`);
* :mod:`~repro.engine.planner` — ``"auto"`` resolution and parameter
  heuristics: :func:`plan_join`, the one planner, returns a
  :class:`JoinPlan` that carries its own cost evidence;
* :mod:`~repro.engine.workspace` — :class:`SpatialWorkspace`, owning
  the simulated disk and the per-dataset index cache;
* :mod:`~repro.engine.report` — :class:`RunReport`, the structured
  replacement for the legacy ``(result, build_a, build_b)`` tuple.
"""

from repro.engine.executor import (
    BatchExecutor,
    BatchReport,
    JoinRequest,
    RequestOutcome,
)
from repro.engine.planner import (
    EXPERIMENT_PAGE_SIZE,
    JoinPlan,
    PlanHints,
    experiment_disk_model,
    pbsm_resolution,
    plan_join,
)
from repro.engine.registry import (
    AlgorithmSpec,
    algorithm_spec,
    available_algorithms,
    create_algorithm,
    register_algorithm,
)
from repro.engine.report import RunReport
from repro.engine.workspace import EmptyIndex, SpatialWorkspace

__all__ = [
    "SpatialWorkspace",
    "EmptyIndex",
    "RunReport",
    "BatchExecutor",
    "BatchReport",
    "JoinRequest",
    "RequestOutcome",
    "JoinPlan",
    "PlanHints",
    "plan_join",
    "AlgorithmSpec",
    "algorithm_spec",
    "available_algorithms",
    "create_algorithm",
    "register_algorithm",
    "EXPERIMENT_PAGE_SIZE",
    "experiment_disk_model",
    "pbsm_resolution",
]
