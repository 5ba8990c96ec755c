"""One entry point per table/figure of the paper's evaluation.

Each ``fig…``/``table…`` function builds the corresponding workload at
a configurable scale, runs every algorithm the paper plots, and
returns structured rows; ``main`` prints them paper-style.  Benchmarks
under ``benchmarks/`` call the same functions with small scales, so a
bench run and a harness run exercise identical code.

Default sizes are chosen so the full suite finishes in minutes on a
laptop; ``--scale`` multiplies them (the shapes are stable across
scales — that is the point of the robustness claim).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.core import TransformersConfig, TransformersJoin
from repro.datagen import (
    dense_cluster,
    density_ladder,
    massive_cluster,
    neuro_datasets,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.engine import RunReport, SpatialWorkspace
from repro.geometry.box import Box
from repro.harness.report import format_table
from repro.harness.runner import scale_counts
from repro.joins.base import Dataset, SpatialJoinAlgorithm


def _standard_algorithms(
    with_gipsy: bool = False, with_rtree: bool = True
) -> list[str]:
    """The paper's comparison set (Section VII-A), as registry names.

    The engine's planner resolves each name's parameters (PBSM grid
    resolution, shared space) per dataset pair — the hand-wiring this
    function used to do.
    """
    names = ["transformers", "pbsm"]
    if with_rtree:
        names.append("rtree")
    if with_gipsy:
        names.append("gipsy")
    return names


def _run_one(
    algorithm: str | SpatialJoinAlgorithm,
    a: Dataset,
    b: Dataset,
    space: Box | None = None,
) -> RunReport:
    """One cold run on a fresh workspace (the paper's protocol).

    ``space`` is a planner input, so it only applies to registry
    names; pre-configured instances already carry their parameters.
    """
    workspace = SpatialWorkspace()
    if isinstance(algorithm, str):
        return workspace.join(a, b, algorithm=algorithm, space=space)
    return workspace.join(a, b, algorithm=algorithm)


# ----------------------------------------------------------------------
# FIG01 / FIG10 — robustness across density ratios
# ----------------------------------------------------------------------
def fig10(scale: float = 1.0) -> list[dict]:
    """Figures 1 and 10: join time across the density-ratio ladder.

    Paper: |A| 200K→200M while |B| 200M→200K (ratios 10⁻³…10³);
    TRANSFORMERS is nearly flat, GIPSY wins only at extreme ratios,
    PBSM only near 1×, R-TREE dominated everywhere.
    """
    smallest = max(10, round(60 * scale))
    largest = max(smallest * 8, round(20_000 * scale))
    rows: list[dict] = []
    for a, b, ratio in density_ladder(smallest, largest, steps=9):
        space = a.boxes.mbb().union(b.boxes.mbb())
        for algorithm in _standard_algorithms(with_gipsy=True):
            row = _run_one(algorithm, a, b, space).row()
            row["density_ratio"] = round(ratio, 4)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# FIG11 — non-uniform distributions (DenseCluster vs UniformCluster)
# ----------------------------------------------------------------------
def fig11(scale: float = 1.0) -> list[dict]:
    """Figure 11: indexing time, join breakdown and #tests on clustered data.

    Paper: DenseCluster ⋈ UniformCluster at 350M–650M total elements;
    PBSM indexes ~3× faster, TRANSFORMERS joins 5.5–7.4× faster and
    performs ~4.4× fewer comparisons; GIPSY excluded (too slow), R-TREE
    excluded at the largest size.
    """
    totals = scale_counts([10_000, 20_000, 30_000, 40_000], scale)
    rows: list[dict] = []
    for total in totals:
        space = scaled_space(total)
        half = total // 2
        a = dense_cluster(half, seed=21, name="dense", space=space)
        b = uniform_cluster(
            total - half, seed=22, name="unifclust",
            id_offset=10**9, space=space,
        )
        for algorithm in _standard_algorithms():
            rows.append(_run_one(algorithm, a, b, space).row())
    return rows


# ----------------------------------------------------------------------
# TAB1 — uniform distributions
# ----------------------------------------------------------------------
def table1(scale: float = 1.0) -> list[dict]:
    """Table I: execution time on uniformly distributed datasets.

    Paper (150M/250M/350M elements per dataset, hours):
    TRANSFORMERS 0.16/0.30/0.49, PBSM 1.02/2.24/4.28,
    R-TREE 4.55/11.63/24.92.
    """
    per_dataset = scale_counts([6_000, 10_000, 14_000], scale)
    rows: list[dict] = []
    for n in per_dataset:
        space = scaled_space(2 * n)
        a = uniform_dataset(n, seed=31, name="uniformA", space=space)
        b = uniform_dataset(
            n, seed=32, name="uniformB", id_offset=10**9, space=space
        )
        for algorithm in _standard_algorithms():
            rows.append(_run_one(algorithm, a, b, space).row())
    return rows


# ----------------------------------------------------------------------
# FIG12 — neuroscience data
# ----------------------------------------------------------------------
def fig12(scale: float = 1.0) -> list[dict]:
    """Figure 12: axons ⋈ dendrites on (synthetic) neuroscience data.

    Paper: 100M–350M elements, TRANSFORMERS 2.3–3.3× faster joins than
    PBSM and 4.1–6.5× than R-TREE.
    """
    totals = scale_counts([8_000, 16_000, 24_000], scale)
    rows: list[dict] = []
    for total in totals:
        space = scaled_space(total)
        axons, dendrites = neuro_datasets(total, seed=41, space=space)
        for algorithm in _standard_algorithms():
            rows.append(_run_one(algorithm, axons, dendrites, space).row())
    return rows


# ----------------------------------------------------------------------
# FIG13 (left) — impact of transformations
# ----------------------------------------------------------------------
def fig13_impact(scale: float = 1.0) -> list[dict]:
    """Figure 13 left: TRANSFORMERS vs the No-TR ablation on MassiveCluster.

    Paper: benefit grows with skew, 1.2–1.6× across 50M–350M elements.
    """
    totals = scale_counts([4_000, 8_000, 16_000, 24_000], scale)
    rows: list[dict] = []
    for total in totals:
        space = scaled_space(total)
        half = total // 2
        # MassiveCluster against a space-filling partner: every cluster
        # of A sits over a (locally much sparser) region of B — the
        # contrast the layout transformations exploit.
        a = massive_cluster(half, seed=51, name="massiveA", space=space)
        b = uniform_dataset(
            total - half, seed=52, name="uniformB",
            id_offset=10**9, space=space,
        )
        variants = (
            (TransformersJoin(), "TRANSFORMERS"),
            (TransformersJoin(TransformersConfig.no_transformations()), "No TR"),
        )
        for algorithm, label in variants:
            row = _run_one(algorithm, a, b, space).row()
            row["algorithm"] = label
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# FIG13 (right) — transformation-threshold sensitivity
# ----------------------------------------------------------------------
def fig13_threshold(scale: float = 1.0) -> list[dict]:
    """Figure 13 right: OverFit (t=1.5) vs cost model vs UnderFit (t=10⁶).

    Paper: the cost model tracks whichever static extreme suits each
    distribution — UnderFit on Uniform, OverFit on MassiveCluster.
    """
    total = max(64, round(16_000 * scale))
    space = scaled_space(total)
    half = total // 2
    workloads = {
        "MassiveCluster": (
            massive_cluster(half, seed=61, name="massA", space=space),
            uniform_dataset(
                total - half, seed=62, name="unifB",
                id_offset=10**9, space=space,
            ),
        ),
        "UniformVsDenseCluster": (
            uniform_cluster(half, seed=63, name="uclustA", space=space),
            dense_cluster(
                total - half, seed=64, name="dclustB",
                id_offset=10**9, space=space,
            ),
        ),
        "Uniform": (
            uniform_dataset(half, seed=65, name="unifA", space=space),
            uniform_dataset(
                total - half, seed=66, name="unifB",
                id_offset=10**9, space=space,
            ),
        ),
    }
    configs = {
        "OverFit": TransformersConfig.overfit(),
        "CostModelFit": TransformersConfig(),
        "UnderFit": TransformersConfig.underfit(),
    }
    rows: list[dict] = []
    for wname, (a, b) in workloads.items():
        for cname, config in configs.items():
            rec = _run_one(TransformersJoin(config), a, b, space)
            row = rec.row()
            row["workload"] = wname
            row["config"] = cname
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# FIG14 — adaptive exploration overhead
# ----------------------------------------------------------------------
def fig14(scale: float = 1.0) -> list[dict]:
    """Figure 14: exploration overhead vs join cost on MassiveCluster.

    Paper: the overhead averages 17 % of join execution time.
    """
    totals = scale_counts([4_000, 8_000, 16_000, 24_000], scale)
    rows: list[dict] = []
    for total in totals:
        space = scaled_space(total)
        half = total // 2
        a = massive_cluster(half, seed=71, name="massA", space=space)
        b = uniform_dataset(
            total - half, seed=72, name="unifB",
            id_offset=10**9, space=space,
        )
        rec = _run_one(TransformersJoin(), a, b, space)
        extras = rec.join_stats.extras
        overhead = extras.get("exploration_cost", 0.0)
        join_cost = extras.get("join_cost", 0.0)
        denom = overhead + join_cost
        rows.append(
            {
                "n_total": total,
                "join_cost": round(join_cost, 1),
                "overhead": round(overhead, 1),
                "overhead_share": round(overhead / denom, 3) if denom else 0.0,
                "pairs": rec.pairs_found,
            }
        )
    return rows


EXPERIMENTS: dict[str, Callable[[float], list[dict]]] = {
    "fig10": fig10,
    "fig11": fig11,
    "table1": table1,
    "fig12": fig12,
    "fig13_impact": fig13_impact,
    "fig13_threshold": fig13_threshold,
    "fig14": fig14,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run one experiment (or ``all``) and print paper-style rows."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply default dataset sizes (default 1.0)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="additionally render join-cost curves as an ASCII chart",
    )
    args = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        rows = EXPERIMENTS[name](args.scale)
        print(format_table(rows, title=f"== {name} (scale {args.scale}) =="))
        if args.chart:
            chart = _chart_for(name, rows)
            if chart:
                print()
                print(chart)
        print()
    return 0


def _chart_for(name: str, rows: list[dict]) -> str | None:
    """Join-cost curves for the experiments that are figures."""
    from repro.harness.chart import ascii_chart

    if not rows or "algorithm" not in rows[0]:
        return None
    x_key = "density_ratio" if "density_ratio" in rows[0] else "n_a"
    series: dict[str, list[float]] = {}
    x_values: list[object] = []
    for row in rows:
        if row[x_key] not in x_values:
            x_values.append(row[x_key])
        series.setdefault(row["algorithm"], []).append(row["join_cost"])
    if any(len(v) != len(x_values) for v in series.values()):
        return None
    # TRANSFORMERS first so its marks win cell collisions.
    ordered = dict(
        sorted(series.items(), key=lambda kv: kv[0] != "TRANSFORMERS")
    )
    return ascii_chart(
        x_values, ordered, title=f"{name}: join cost (log scale)"
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
