"""A call budget for the cold join: Python-level calls, not seconds.

The cold path's cost is mostly the fixed cost of NumPy and Python calls
(ROADMAP B), and a call count is the one number about it that does not
move with the host's load.  This counts cProfile's ``total_calls`` over
one cold ``SpatialWorkspace().join`` of a seeded 3-D massive-cluster x
uniform pair at n = 3 000 (after one warm-up join) and fails when it
grows past the count measured when the budget was set plus 15 % — the
slack absorbs drift in NumPy's Python-level wrappers between versions.
Run it as a script (``PYTHONPATH=src python
tests/test_cold_call_budget.py``) to print the current count.
"""

import cProfile
import pstats

from repro import SpatialWorkspace
from repro.datagen import massive_cluster, scaled_space, uniform_dataset

#: ``total_calls`` of one cold join of :func:`cold_pair`, as measured
#: when the budget was set (NumPy 2.4, Python 3.11).
MEASURED_CALLS = 8_300

#: Allowed growth over :data:`MEASURED_CALLS`.
SLACK = 0.15


def cold_pair():
    space = scaled_space(6_000)
    a = massive_cluster(3_000, seed=4_001, name="A", space=space)
    b = uniform_dataset(3_000, seed=4_002, name="B", id_offset=10**9, space=space)
    return a, b


def cold_join_calls() -> int:
    a, b = cold_pair()
    SpatialWorkspace().join(a, b)  # warm-up: imports, caches, first-call paths
    profile = cProfile.Profile()
    profile.enable()
    SpatialWorkspace().join(a, b)
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_a_cold_join_stays_within_its_call_budget():
    calls = cold_join_calls()
    print(f"cold join: {calls} Python-level calls (budget {MEASURED_CALLS} + {SLACK:.0%})")
    assert calls <= MEASURED_CALLS * (1 + SLACK)


if __name__ == "__main__":
    print(cold_join_calls())
