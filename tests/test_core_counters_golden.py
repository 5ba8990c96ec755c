"""Golden counters of the TRANSFORMERS join.

The simulated counters *are* the paper's figures (Table I, Figs. 10-14),
so a rewrite of the exploration code must not move any of them.  The
values below were recorded at commit 0fd7e3d (per-unit / per-candidate
loops) and every later implementation has to reproduce them exactly:
the pair set, every counter of the join and of both index builds, and
every ``extras`` key — floats included, compared with ``==``.

To re-record after an *intended* change of the algorithm, run
``PYTHONPATH=src:. python tests/test_core_counters_golden.py`` and paste
the printed dictionary over ``GOLDEN``.
"""

import hashlib
import json

import pytest

from repro.core import TransformersJoin
from repro.datagen import massive_cluster, scaled_space, uniform_dataset
from repro.geometry.boxes import BoxArray
from repro.joins.base import CostModel, Dataset
from repro.storage.disk import SimulatedDisk

from tests.conftest import NON_DYADIC, make_disk, run_join

N = 3_000
CASES = ("uniform_3d", "massive_3d", "massive_2d")


def _flatten(dataset: Dataset) -> Dataset:
    """The dataset's projection onto the xy plane."""
    boxes = BoxArray(dataset.boxes.lo[:, :2], dataset.boxes.hi[:, :2])
    return Dataset(dataset.name, dataset.ids, boxes)


def _pair(case: str) -> tuple[Dataset, Dataset]:
    space = scaled_space(2 * N)
    left = uniform_dataset if case == "uniform_3d" else massive_cluster
    a = left(N, seed=1, name="A", space=space)
    b = uniform_dataset(N, seed=2, name="B", id_offset=10**9, space=space)
    if case == "massive_2d":
        return _flatten(a), _flatten(b)
    return a, b


def observe(case: str) -> dict[str, object]:
    """Everything deterministic one indexed join reports."""
    result, build_a, build_b = run_join(
        TransformersJoin(), make_disk(), *_pair(case)
    )
    stats = result.stats
    return {
        "pairs_sha256": hashlib.sha256(result.pairs.tobytes()).hexdigest(),
        "pairs_found": stats.pairs_found,
        "metadata_comparisons": stats.metadata_comparisons,
        "intersection_tests": stats.intersection_tests,
        "pages_read": stats.pages_read,
        "io_cost": stats.io_cost,
        "extras": dict(stats.extras),
        "builds": [
            {
                "io_cost": build.io_cost,
                "pages_written": build.pages_written,
                "extras": dict(build.extras),
            }
            for build in (build_a, build_b)
        ],
    }


GOLDEN: dict[str, dict[str, object]] = {
    "uniform_3d": {
        "pairs_sha256": "b8c045ad19f9f3524867659223c5b3b737a43835422936d471ea5ced928df061",
        "pairs_found": 294,
        "metadata_comparisons": 9254,
        "intersection_tests": 22295,
        "pages_read": 387,
        "io_cost": 1489.0,
        "extras": {
            "role_switches": 0.0,
            "splits_to_unit": 0.0,
            "splits_to_element": 0.0,
            "exploration_io_cost": 65.0,
            "data_io_cost": 1424.0,
            "exploration_cost": 83.508,
            "join_cost": 1468.59,
            "t_su_final": 8.0,
            "t_so_final": 27.0
        },
        "builds": [
            {
                "io_cost": 195.0,
                "pages_written": 195,
                "extras": {
                    "space_units": 180.0,
                    "space_nodes": 12.0
                }
            },
            {
                "io_cost": 195.0,
                "pages_written": 195,
                "extras": {
                    "space_units": 180.0,
                    "space_nodes": 12.0
                }
            }
        ]
    },
    "massive_3d": {
        "pairs_sha256": "dd686a88f90ca95a1bc34450876f27f54e90167b72d1c11bdbab0dd98b2161c8",
        "pairs_found": 411,
        "metadata_comparisons": 7464,
        "intersection_tests": 25224,
        "pages_read": 249,
        "io_cost": 667.0,
        "extras": {
            "role_switches": 1.0,
            "splits_to_unit": 6.0,
            "splits_to_element": 6.0,
            "exploration_io_cost": 65.0,
            "data_io_cost": 602.0,
            "exploration_cost": 79.928,
            "join_cost": 652.448,
            "t_su_final": 8.0,
            "t_so_final": 8.0
        },
        "builds": [
            {
                "io_cost": 195.0,
                "pages_written": 195,
                "extras": {
                    "space_units": 180.0,
                    "space_nodes": 12.0
                }
            },
            {
                "io_cost": 195.0,
                "pages_written": 195,
                "extras": {
                    "space_units": 180.0,
                    "space_nodes": 12.0
                }
            }
        ]
    },
    "massive_2d": {
        "pairs_sha256": "c65f3f0bda33ed3f769d56df3f8e716488a90aee9621c60c85facabfb649dc73",
        "pairs_found": 9227,
        "metadata_comparisons": 3020,
        "intersection_tests": 40121,
        "pages_read": 190,
        "io_cost": 779.0,
        "extras": {
            "role_switches": 1.0,
            "splits_to_unit": 1.0,
            "splits_to_element": 0.0,
            "exploration_io_cost": 59.0,
            "data_io_cost": 720.0,
            "exploration_cost": 65.04,
            "join_cost": 800.242,
            "t_su_final": 8.0,
            "t_so_final": 8.0
        },
        "builds": [
            {
                "io_cost": 133.0,
                "pages_written": 133,
                "extras": {
                    "space_units": 121.0,
                    "space_nodes": 9.0
                }
            },
            {
                "io_cost": 133.0,
                "pages_written": 133,
                "extras": {
                    "space_units": 121.0,
                    "space_nodes": 9.0
                }
            }
        ]
    }
}


@pytest.mark.parametrize("case", CASES)
def test_counters_equal_the_recorded_ones(case):
    assert observe(case) == GOLDEN[case]


def test_the_skewed_case_exercises_every_transformation():
    """The golden is only worth its name if the role switch and both
    split granularities actually ran."""
    extras = GOLDEN["massive_3d"]["extras"]
    assert extras["role_switches"] > 0
    assert extras["splits_to_unit"] > 0
    assert extras["splits_to_element"] > 0


#: ``massive_3d`` again on a disk whose costs are not dyadic fractions,
#: so no cost sum is exact and every float below depends on the order
#: of its additions: the join driver attributes a run of page reads
#: page by page.  Recorded at commit b38cd33 (one attribution per
#: ``BufferPool.read``).
NON_DYADIC_GOLDEN = {
    "pairs_sha256": "dd686a88f90ca95a1bc34450876f27f54e90167b72d1c11bdbab0dd98b2161c8",
    "io_cost": 38.10000000000017,
    "extras": {
        "role_switches": 1.0,
        "splits_to_unit": 6.0,
        "splits_to_element": 6.0,
        "exploration_io_cost": 3.9000000000000017,
        "data_io_cost": 34.200000000000166,
        "exploration_cost": 18.828000000000003,
        "join_cost": 84.64800000000017,
        "t_su_final": 8.0,
        "t_so_final": 8.0
    },
    "build_io_costs": [
        58.4999999999998,
        58.499999999999446
    ],
    "total_cost": 220.47599999999943
}


def test_float_sums_equal_the_recorded_ones_under_a_non_dyadic_model():
    result, build_a, build_b = run_join(
        TransformersJoin(), SimulatedDisk(NON_DYADIC), *_pair("massive_3d")
    )
    stats, model = result.stats, CostModel()
    assert {
        "pairs_sha256": hashlib.sha256(result.pairs.tobytes()).hexdigest(),
        "io_cost": stats.io_cost,
        "extras": dict(stats.extras),
        "build_io_costs": [build_a.io_cost, build_b.io_cost],
        "total_cost": stats.total_cost(model)
        + build_a.total_cost(model)
        + build_b.total_cost(model),
    } == NON_DYADIC_GOLDEN


if __name__ == "__main__":
    print(json.dumps({case: observe(case) for case in CASES}, indent=4))
