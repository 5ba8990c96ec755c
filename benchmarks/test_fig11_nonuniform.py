"""FIG11 — non-uniform data distributions (Figure 11).

Paper shape, joining DenseCluster with UniformCluster at growing sizes:

* indexing: PBSM builds 2.9–3.6× faster than TRANSFORMERS (space-
  oriented assignment vs three-dimensional sort);
* join: TRANSFORMERS beats PBSM by 5.5–7.4× and the R-tree by more;
* comparisons: PBSM performs ~4.4× more intersection tests than
  TRANSFORMERS (whose count includes metadata comparisons).
"""

from repro.harness.report import format_table

from benchmarks.conftest import by_algorithm, golden_rows


def test_fig11_clustered_distributions():
    rows = golden_rows("fig11")
    print()
    print(format_table(rows, title="Figure 11 — DenseCluster x UniformCluster"))

    costs = by_algorithm(rows)
    tr = costs["TRANSFORMERS"]
    pbsm = costs["PBSM"]
    rtree = costs["R-TREE"]

    # TRANSFORMERS wins the join phase at every size, by a healthy factor.
    for t, p in zip(tr, pbsm):
        assert p / t > 2.0
    for t, r in zip(tr, rtree):
        assert r / t > 1.5

    # Indexing: PBSM's one-pass grid assignment builds faster than
    # TRANSFORMERS' 3-D sort (the paper's 2.9-3.6x, relaxed here).
    idx = {}
    for row in rows:
        idx.setdefault(row["algorithm"], []).append(row["index_cost"])
    for t, p in zip(idx["TRANSFORMERS"], idx["PBSM"]):
        assert p < t * 1.5

    # Join cost grows with dataset size for every algorithm.
    for series in (tr, pbsm, rtree):
        assert series == sorted(series)

    # The index is reusable only for the data-oriented approaches; the
    # paper argues TR's higher indexing cost amortises. Sanity: overall
    # (index + join) TR still wins.
    for row_t, row_p in zip(
        [r for r in rows if r["algorithm"] == "TRANSFORMERS"],
        [r for r in rows if r["algorithm"] == "PBSM"],
    ):
        total_t = row_t["index_cost"] + row_t["join_cost"]
        total_p = row_p["index_cost"] + row_p["join_cost"]
        assert total_t < total_p
