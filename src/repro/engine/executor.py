"""The join executor: one request, one report, on a long-lived workspace.

:class:`BatchExecutor` runs one :class:`JoinRequest` (dataset pair,
algorithm name or ``"auto"``, parameters) inline and returns its
:class:`~repro.engine.report.RunReport`, or raises what the join
raised.  Both service tiers run their cache misses through it, one
executor per shard; parallelism lives one level up, in the sharded tier
(:mod:`repro.service.sharded`), whose shard processes each run one
executor and turn a raised exception into that miss's failed reply.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.joins.base import Dataset, SpatialJoinAlgorithm

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


#: Index-cache bound of an executor's workspace (its sketch and
#: enlarged-dataset memos share it).  Picked by measuring the serve
#: workloads' ``peak_rss_mb``; a shard holds at most this many indexes.
EXECUTOR_CACHED_INDEXES = 16


class BatchExecutor:
    """Runs join requests inline, one at a time, on one long-lived
    workspace.

    That workspace has the default disk and cost models, and its index
    cache holds at most :data:`EXECUTOR_CACHED_INDEXES` indexes, so a
    later request reuses what an earlier one built and the executor's
    memory stays bounded however many requests it runs.  An executor
    serves one caller at a time: the service tiers call :meth:`run`
    under their shard's lock.
    """

    def __init__(self) -> None:
        self.workspace = SpatialWorkspace(
            max_cached_indexes=EXECUTOR_CACHED_INDEXES
        )

    def run(self, request: JoinRequest) -> RunReport:
        """Execute one request on the executor's workspace; a failure
        (bad parameters, an algorithm raising) propagates."""
        # space/parameters are forwarded even for instance algorithms:
        # the workspace rejects that combination with a ValueError
        # rather than dropping them silently here.
        return self.workspace.join(
            _concrete(request.a),
            _concrete(request.b),
            algorithm=request.algorithm,
            space=request.space,
            parameters=request.parameters,
            within=request.within,
        )
