"""Structured result of one workspace join.

:class:`RunReport` carries the join result, both per-phase build
statistics, the resolved :class:`~repro.engine.planner.JoinPlan`,
index-cache provenance
(which sides were reused, how many pages each build step actually
wrote *in this run*), and a :meth:`total_cost` combining everything
under a cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.planner import JoinPlan, PlanReport
from repro.joins.base import CostModel, JoinResult, JoinStats


@dataclass
class RunReport:
    """Everything measured and decided for one workspace join."""

    algorithm: str
    dataset_a: str
    dataset_b: str
    n_a: int
    n_b: int
    result: JoinResult
    build_a: JoinStats
    build_b: JoinStats
    plan: JoinPlan | None = None
    #: Whether each side's index came from the workspace cache.
    reused_a: bool = False
    reused_b: bool = False
    #: Pages written while indexing during *this* join (0 on cache hit).
    index_pages_written_a: int = 0
    index_pages_written_b: int = 0
    cost_model: CostModel = field(default_factory=CostModel)
    #: The explainable planning decision (candidate costs, selectivity
    #: estimate, error band).  Populated whenever the statistics layer
    #: planned this join — ``algorithm="auto"``, or any registry name
    #: under ``join(..., explain=True)``.
    plan_report: PlanReport | None = None
    #: Provenance: this report's pair set was produced by patching a
    #: cached result through ``delta_join`` (streaming tier) rather
    #: than by running the named algorithm.  The pair set is exactly
    #: the recompute's; work counters describe the patch.
    delta_patched: bool = False

    # ------------------------------------------------------------------
    # Result access
    # ------------------------------------------------------------------
    @property
    def join_stats(self) -> JoinStats:
        """Work counters of the join phase."""
        return self.result.stats

    @property
    def pairs_found(self) -> int:
        """Result pairs reported by the join."""
        return self.join_stats.pairs_found

    def pair_set(self) -> set[tuple[int, int]]:
        """The result as a Python set (for comparisons in tests)."""
        return self.result.pair_set()

    # ------------------------------------------------------------------
    # Costs (simulated time, as in the paper's figures)
    # ------------------------------------------------------------------
    @property
    def index_cost(self) -> float:
        """Simulated indexing time charged to this run.

        Cache hits charge nothing: the whole point of index reuse
        (Section VII-C1) is that a second join against a cached dataset
        pays only its partner's build.
        """
        cost = 0.0
        if not self.reused_a:
            cost += self.build_a.total_cost(self.cost_model)
        if not self.reused_b:
            cost += self.build_b.total_cost(self.cost_model)
        return cost

    @property
    def join_cost(self) -> float:
        """Simulated join time (the paper's headline metric)."""
        return self.join_stats.total_cost(self.cost_model)

    @property
    def join_io_cost(self) -> float:
        """Simulated join-phase I/O time (Fig. 11/12 "I/O" bars)."""
        return self.join_stats.io_cost

    @property
    def join_cpu_cost(self) -> float:
        """Simulated join-phase CPU time (Fig. 11/12 "Join" bars)."""
        return self.join_stats.cpu_cost(self.cost_model)

    @property
    def intersection_tests(self) -> int:
        """Element comparisons, incl. metadata for TRANSFORMERS.

        The paper's Figure 11 note: "For TRANSFORMERS this ... also
        includes metadata comparisons."
        """
        return (
            self.join_stats.intersection_tests
            + self.join_stats.metadata_comparisons
        )

    def total_cost(self, cost_model: CostModel | None = None) -> float:
        """End-to-end simulated time: indexing (as charged) plus join."""
        model = cost_model or self.cost_model
        cost = self.join_stats.total_cost(model)
        if not self.reused_a:
            cost += self.build_a.total_cost(model)
        if not self.reused_b:
            cost += self.build_b.total_cost(model)
        return cost

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def row(self) -> dict[str, float]:
        """Flat reporting row (same keys as the harness tables)."""
        return {
            "algorithm": self.algorithm,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "pairs": self.pairs_found,
            "index_cost": round(self.index_cost, 1),
            "join_cost": round(self.join_cost, 1),
            "join_io": round(self.join_io_cost, 1),
            "join_cpu": round(self.join_cpu_cost, 1),
            "tests": self.intersection_tests,
            "join_wall_s": round(self.join_stats.wall_seconds, 3),
        }
