"""Ablation: GIPSY's role-predetermination weakness (Section VIII-A).

"The performance of GIPSY relies on the ability to predetermine which
dataset is dense and which one is sparse."  This bench joins a sparse
and a dense dataset with GIPSY both ways and shows the penalty for
guessing wrong — the problem TRANSFORMERS' runtime role transformation
removes (its cost is the same regardless of argument order).
"""

from repro.core import TransformersJoin
from repro.datagen import scaled_space, uniform_dataset
from repro.engine import SpatialWorkspace
from repro.harness.report import format_table
from repro.joins import GipsyJoin

from benchmarks.conftest import run_once


def sweep(scale: float) -> list[dict]:
    # A 12x density contrast: past the role-transformation threshold
    # (Vg/Vf <= 1/tsu = 1/8), so TRANSFORMERS adapts its roles at
    # runtime regardless of argument order.
    n_sparse = max(150, round(1_500 * scale))
    n_dense = 12 * n_sparse
    space = scaled_space(n_sparse + n_dense)
    sparse = uniform_dataset(n_sparse, seed=51, name="sparse", space=space)
    dense = uniform_dataset(
        n_dense, seed=52, name="dense", id_offset=10**9, space=space
    )
    rows = []
    for label, algo in (
        ("GIPSY outer=sparse (right)", GipsyJoin(outer="a")),
        ("GIPSY outer=dense (wrong)", GipsyJoin(outer="b")),
        ("TRANSFORMERS (a, b)", TransformersJoin()),
    ):
        rec = SpatialWorkspace().join(sparse, dense, algo)
        row = rec.row()
        row["algorithm"] = label
        row["metadata_comparisons"] = rec.join_stats.metadata_comparisons
        rows.append(row)
    rec = SpatialWorkspace().join(dense, sparse, TransformersJoin())
    row = rec.row()
    row["algorithm"] = "TRANSFORMERS (b, a)"
    row["metadata_comparisons"] = rec.join_stats.metadata_comparisons
    rows.append(row)
    return rows


def test_gipsy_role_sensitivity(benchmark, scale):
    rows = run_once(benchmark, sweep, scale)
    print()
    print(format_table(rows, title="Ablation — GIPSY role predetermination"))

    costs = {r["algorithm"]: r["join_cost"] for r in rows}
    meta = {r["algorithm"]: r["metadata_comparisons"] for r in rows}
    # Guessing the roles wrong multiplies GIPSY's exploration work: the
    # per-element walk/crawl overhead is paid |outer| times.  (At
    # simulator scale the extra work is metadata-bound because the
    # descriptor graphs are cache-resident, so the robust observable is
    # the comparison count, not the I/O-dominated join cost.)
    assert (
        meta["GIPSY outer=dense (wrong)"]
        > 1.8 * meta["GIPSY outer=sparse (right)"]
    )

    # TRANSFORMERS is insensitive to the argument order (role
    # transformations pick the sparse guide at runtime).
    tr_ab = costs["TRANSFORMERS (a, b)"]
    tr_ba = costs["TRANSFORMERS (b, a)"]
    assert max(tr_ab, tr_ba) < 2.0 * min(tr_ab, tr_ba)

    # All four runs agree on the result cardinality.
    assert len({r["pairs"] for r in rows}) == 1
