"""Unified engine API: workspace, algorithm registry, planner, reports.

This subpackage is the recommended way to run spatial joins and range
queries::

    from repro import SpatialWorkspace

    ws = SpatialWorkspace()
    report = ws.join(a, b)                     # planner-resolved
    report = ws.join(a, c, algorithm="pbsm")   # explicit, no wiring
    hits = ws.range_query(a, box)              # reuses a's index

The executor runs one request at a time on its one long-lived
workspace, so a request reuses the indexes earlier requests built; it
returns the request's report, or raises what the join raised.  The
service tiers run their cache misses through it::

    from repro.engine import BatchExecutor, JoinRequest

    executor = BatchExecutor()
    first = executor.run(JoinRequest(a, b, "transformers"))
    again = executor.run(JoinRequest(a, c, "transformers"))
    again.reused_a                             # True: a's index kept

* :mod:`~repro.engine.executor` — :class:`BatchExecutor` and
  :class:`JoinRequest`;
* :mod:`~repro.engine.registry` — the fixed table of string-named
  algorithm factories (:func:`available_algorithms`,
  :func:`algorithm_spec`);
* :mod:`~repro.engine.planner` — ``"auto"`` resolution and parameter
  heuristics: :func:`plan_join`, the one planner, returns a
  :class:`JoinPlan` that carries its own cost evidence;
* :mod:`~repro.engine.workspace` — :class:`SpatialWorkspace`, owning
  the simulated disk and the per-dataset index cache;
* :mod:`~repro.engine.report` — :class:`RunReport`, the structured
  replacement for the legacy ``(result, build_a, build_b)`` tuple.
"""

from repro.engine.executor import BatchExecutor, JoinRequest
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
)
from repro.engine.report import RunReport
from repro.engine.workspace import EmptyIndex, SpatialWorkspace

__all__ = [
    "SpatialWorkspace",
    "EmptyIndex",
    "RunReport",
    "BatchExecutor",
    "JoinRequest",
    "JoinPlan",
    "PlanHints",
    "plan_join",
    "AlgorithmSpec",
    "algorithm_spec",
    "available_algorithms",
    "create_algorithm",
    "EXPERIMENT_PAGE_SIZE",
    "experiment_disk_model",
    "pbsm_resolution",
]
