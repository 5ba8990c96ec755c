"""Cross-algorithm integration tests.

The strongest correctness statement in the repository: every disk-based
join algorithm — the TRANSFORMERS contribution and all four baselines —
produces the *identical* result set on the same inputs, equal to the
brute-force oracle, across every workload archetype the paper
evaluates.
"""

import pytest

from repro.core import TransformersJoin
from repro.engine import pbsm_resolution
from repro.joins import (
    GipsyJoin,
    IndexedNestedLoopJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


def all_algorithms(space, n_total):
    return [
        TransformersJoin(),
        PBSMJoin(space=space, resolution=pbsm_resolution(n_total)),
        SynchronizedRTreeJoin(),
        GipsyJoin(),
        IndexedNestedLoopJoin(),
    ]


@pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
def test_all_algorithms_agree(kind):
    a, b = dataset_pair(kind, 900, 1200, seed=91)
    expected = oracle_pairs(a, b)
    space = a.boxes.mbb().union(b.boxes.mbb())
    for algo in all_algorithms(space, len(a) + len(b)):
        result, _, _ = run_join(algo, make_disk(), a, b)
        assert result.pair_set() == expected, algo.name


def test_all_algorithms_agree_on_skewed_ratio():
    a, b = dataset_pair("uniform", 80, 3200, seed=92)
    expected = oracle_pairs(a, b)
    space = a.boxes.mbb().union(b.boxes.mbb())
    for algo in all_algorithms(space, len(a) + len(b)):
        result, _, _ = run_join(algo, make_disk(), a, b)
        assert result.pair_set() == expected, algo.name


def test_every_algorithm_charges_io_in_both_phases():
    a, b = dataset_pair("uniform", 1200, 1200, seed=93)
    space = a.boxes.mbb().union(b.boxes.mbb())
    for algo in all_algorithms(space, len(a) + len(b)):
        disk = make_disk()
        ia, build_a = algo.build_index(disk, a)
        ib, build_b = algo.build_index(disk, b)
        assert build_a.pages_written > 0, algo.name
        assert build_b.pages_written > 0, algo.name
        disk.reset_stats()
        result = algo.join(ia, ib)
        assert result.stats.pages_read > 0, algo.name
        assert result.stats.io_cost > 0, algo.name


def test_join_counters_are_self_consistent():
    a, b = dataset_pair("clustered", 1500, 1500, seed=94)
    space = a.boxes.mbb().union(b.boxes.mbb())
    for algo in all_algorithms(space, len(a) + len(b)):
        result, _, _ = run_join(algo, make_disk(), a, b)
        js = result.stats
        assert js.pages_read == js.seq_reads + js.random_reads, algo.name
        assert js.pairs_found == len(result.pairs), algo.name
        assert js.wall_seconds > 0, algo.name
