"""TAB1 — uniform data distributions (Table I).

Paper numbers (hours, per-dataset sizes 150M/250M/350M):

=============  =====  =====  =====
algorithm       150M   250M   350M
=============  =====  =====  =====
TRANSFORMERS    0.16   0.30   0.49
PBSM            1.02   2.24   4.28
R-TREE          4.55  11.63  24.92
=============  =====  =====  =====

Shape: TRANSFORMERS fastest at every size (paper: 6.2–8.6× over PBSM);
R-TREE slowest; costs grow roughly linearly for TR and super-linearly
for the baselines.
"""

from repro.harness.report import format_table

from benchmarks.conftest import by_algorithm, golden_rows


def test_table1_uniform_distributions():
    rows = golden_rows("table1")
    print()
    print(format_table(rows, title="Table I — uniform distributions"))

    costs = by_algorithm(rows)
    tr = costs["TRANSFORMERS"]
    pbsm = costs["PBSM"]
    rtree = costs["R-TREE"]

    # TRANSFORMERS wins every size by a substantial factor.
    for t, p in zip(tr, pbsm):
        assert p / t > 2.5
    for t, r in zip(tr, rtree):
        assert r / t > 2.0

    # Monotone growth with dataset size.
    for series in (tr, pbsm, rtree):
        assert series == sorted(series)

    # TRANSFORMERS' initial coarse-grained strategy suits uniform data:
    # few transformations should fire (UnderFit-like behaviour).  We
    # assert indirectly: the TR advantage does not degrade with size.
    first_ratio = pbsm[0] / tr[0]
    last_ratio = pbsm[-1] / tr[-1]
    assert last_ratio > 0.5 * first_ratio
