"""Distance-join oracle: every algorithm under ``within=`` vs brute force.

The intersection oracle in ``tests/test_oracle_random.py`` holds every
registered algorithm against brute force over a seeded corpus of
uniform, clustered, skewed and degenerate pairs.  This harness runs the
same corpus through ``SpatialWorkspace.join(..., within=d)``, so the
enlargement reduction is checked for every registered algorithm and
not only for the few that ``tests/test_within_joins.py`` names.  The
oracle computes the Chebyshev predicate directly from per-axis gaps.
"""

import pytest

from repro.engine import SpatialWorkspace, available_algorithms

from tests.test_joins_distance import brute_distance_pairs
from tests.test_oracle_random import CASES

#: Predicate distances: one below and one above the largest box side
#: the generators draw (1.0).
_DISTANCES = (0.5, 2.0)

_ORACLE_CACHE: dict[tuple[str, float], set[tuple[int, int]]] = {}


def _oracle(label, a, b, distance):
    key = (label, distance)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = brute_distance_pairs(a, b, distance)
    return _ORACLE_CACHE[key]


def test_distances_widen_the_result():
    """The predicate is not vacuous: most cases gain pairs as d grows."""
    widened = 0
    for label, a, b in CASES:
        near = _oracle(label, a, b, _DISTANCES[0])
        far = _oracle(label, a, b, _DISTANCES[1])
        assert near <= far
        widened += len(far) > len(near)
    assert widened >= len(CASES) // 2


@pytest.mark.parametrize("algorithm", available_algorithms())
@pytest.mark.parametrize("distance", _DISTANCES)
@pytest.mark.parametrize(
    "case", CASES, ids=[label for label, _, _ in CASES]
)
def test_within_matches_brute_force_oracle(case, distance, algorithm):
    label, a, b = case
    report = SpatialWorkspace().join(
        a, b, algorithm=algorithm, within=distance
    )
    expected = _oracle(label, a, b, distance)
    assert report.pair_set() == expected, (
        f"{algorithm} disagrees with the distance oracle on {label} "
        f"at within={distance}"
    )
    assert report.pairs_found == len(expected)
