"""Cost-based, explainable join planning over dataset statistics.

The planner no longer decides from two cardinalities: each dataset is
reduced to a density sketch (one vectorized pass, a few KB), every
candidate algorithm prices the pair through its cost hook, and the
cheapest prediction wins — with the whole ranked field returned when
you ask the plan to explain itself.

Run::

    PYTHONPATH=src python examples/cost_based_planning.py [n_total]
"""

import sys

from repro import SpatialWorkspace, plan_join
from repro.datagen import dense_cluster, scaled_space, uniform_cluster


def main() -> int:
    total = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    # A Fig. 11-style pair (DenseCluster vs UniformCluster) at a ~130x
    # cardinality contrast: exactly the workload where a hand-set
    # "extreme contrast -> crawl from the sparse side" rule misplans.
    n_small = max(20, total // 130)
    n_big = total - n_small
    space = scaled_space(total)
    sparse = dense_cluster(n_small, seed=21, name="sparse", space=space)
    dense = uniform_cluster(
        n_big, seed=22, name="dense", id_offset=10**9, space=space
    )

    report = plan_join(sparse, dense, "auto", explain=True)
    print(f"requested : {report.requested}")
    print(f"chosen    : {report.algorithm}")
    print(f"reason    : {report.reason}")
    print(
        f"estimate  : ~{report.est_pairs:.0f} result pairs "
        f"(documented error band {report.error_band:.0f}x)"
    )
    print("candidates (predicted simulated cost, cheapest first):")
    for candidate in report.candidates:
        print(
            f"  {candidate.algorithm:<12s} total={candidate.total:>9.1f}  "
            f"(index {candidate.index_io:.1f} + join I/O "
            f"{candidate.join_io:.1f} + CPU {candidate.join_cpu:.1f})"
        )

    # A contrast rule would have routed this pair to GIPSY; execute
    # both choices and let the measurement speak.
    contrast_rule_choice = "gipsy"
    chosen = SpatialWorkspace().join(
        sparse, dense, algorithm=report.algorithm
    )
    ruled = SpatialWorkspace().join(
        sparse, dense, algorithm=contrast_rule_choice
    )
    print(
        f"\nexecuted  : {report.algorithm} cost "
        f"{chosen.total_cost():.0f} vs {contrast_rule_choice} cost "
        f"{ruled.total_cost():.0f} "
        f"({ruled.total_cost() / chosen.total_cost():.1f}x more for the "
        "contrast rule's pick)"
    )
    # Auto joins carry the same costed plan on the run itself.
    run = SpatialWorkspace().join(sparse, dense)
    assert run.plan is not None and run.plan.stats_used
    print(
        f"run.plan: {run.plan.algorithm} "
        f"(est {run.plan.est_pairs:.0f} pairs, "
        f"found {run.pairs_found}) ✓"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
