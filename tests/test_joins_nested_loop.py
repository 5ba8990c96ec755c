"""Tests for the indexed nested-loop baseline."""

import hashlib
import json

import pytest

from repro.joins.base import CostModel
from repro.joins.nested_loop import IndexedNestedLoopJoin

from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "massive"])
    def test_matches_oracle(self, kind):
        a, b = dataset_pair(kind, 600, 1200, seed=31)
        result, _, _ = run_join(IndexedNestedLoopJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    @pytest.mark.parametrize("outer", ["a", "b"])
    def test_forced_outer(self, outer):
        a, b = dataset_pair("uniform", 300, 900, seed=32)
        result, _, _ = run_join(IndexedNestedLoopJoin(outer=outer), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)


class TestBehaviour:
    def test_rejects_bad_outer(self):
        with pytest.raises(ValueError):
            IndexedNestedLoopJoin(outer="x")

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            IndexedNestedLoopJoin(buffer_pages=0)

    def test_probe_cost_scales_with_outer(self):
        """The related-work claim: INL is only sensible when the outer is
        tiny — per-probe tests dominate as the outer grows."""
        a_small, b = dataset_pair("uniform", 50, 2000, seed=33)
        a_big, b2 = dataset_pair("uniform", 1500, 2000, seed=33)
        r_small, _, _ = run_join(IndexedNestedLoopJoin(outer="a"), make_disk(), a_small, b)
        r_big, _, _ = run_join(IndexedNestedLoopJoin(outer="a"), make_disk(), a_big, b2)
        assert (
            r_big.stats.intersection_tests
            > 5 * r_small.stats.intersection_tests
        )


#: ``(kind, n_a, n_b, seed)`` of the pinned pairs: a sparse outer, a
#: density contrast and a skewed pair of equal size.
PINNED = (
    ("uniform", 300, 3000, 34),
    ("contrast", 800, 1600, 35),
    ("massive", 1200, 1200, 36),
)


def observe(kind, n_a, n_b, seed):
    """Every deterministic counter of one INL build-and-join."""
    result, build_a, build_b = run_join(
        IndexedNestedLoopJoin(), make_disk(), *dataset_pair(kind, n_a, n_b, seed)
    )
    stats, model = result.stats, CostModel()
    return {
        "pairs_sha256": hashlib.sha256(result.pairs.tobytes()).hexdigest(),
        "intersection_tests": stats.intersection_tests,
        "pages_read": stats.pages_read,
        "io_cost": stats.io_cost,
        "pages_written": [build_a.pages_written, build_b.pages_written],
        "total_cost": stats.total_cost(model)
        + build_a.total_cost(model)
        + build_b.total_cost(model),
    }


#: ``observe`` of each pinned pair, floats compared with ``==``.  INL is
#: in neither figure golden, so this pins its sequential file, R-tree
#: and probes; to re-record after an intended change, run
#: ``PYTHONPATH=src:. python tests/test_joins_nested_loop.py`` and paste
#: the printed list over it.
GOLDEN = [
    {
        "pairs_sha256": "0c0c9a4d0c237c536c085234437b2bf25a8ecb680253abd4ea42fa1a4c19fed6",
        "intersection_tests": 16171,
        "pages_read": 207,
        "io_cost": 3722.0,
        "pages_written": [39, 392],
        "total_cost": 4185.342000000001,
    },
    {
        "pairs_sha256": "0dbcb2b9d9d090abd7baaea901773221678b615303250c9cd24691f587ba4def",
        "intersection_tests": 32826,
        "pages_read": 161,
        "io_cost": 2688.0,
        "pages_written": [105, 215],
        "total_cost": 3073.652,
    },
    {
        "pairs_sha256": "662c4ea9bd91835ce650673fcefa76cc56a1b7577ef9bd53895b4deb6687f235",
        "intersection_tests": 58760,
        "pages_read": 103,
        "io_cost": 749.0,
        "pages_written": [175, 175],
        "total_cost": 1216.52,
    },
]


@pytest.mark.parametrize("case, golden", zip(PINNED, GOLDEN))
def test_counters_equal_the_recorded_ones(case, golden):
    assert observe(*case) == golden


if __name__ == "__main__":
    print(json.dumps([observe(*case) for case in PINNED], indent=4))
