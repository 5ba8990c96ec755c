"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper through
the same code path as ``python -m repro.harness.experiments`` — which
runs each measurement on a fresh
:class:`~repro.engine.workspace.SpatialWorkspace` (cold caches between
phases, nothing shared between runs) — and then asserts the *shape*
the paper reports (who wins, roughly by how much).  Absolute numbers
are simulated-cost units, not hours — see DESIGN.md §2.

For closer-to-paper sizes run the harness itself with ``--scale 1.0``.
"""

import pytest

#: Multiplies the harness's default sizes; keeps the suite in tier-1.
BENCH_SCALE = 0.25


def run_once(benchmark, fn, *args):
    """Run an experiment exactly once under pytest-benchmark timing.

    Experiments are deterministic end-to-end joins taking seconds, so
    statistical repetition would only burn time without adding
    information.
    """
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)


def by_algorithm(rows):
    """Group experiment rows: algorithm -> list of join costs."""
    out: dict[str, list[float]] = {}
    for row in rows:
        out.setdefault(row["algorithm"], []).append(row["join_cost"])
    return out


@pytest.fixture
def scale():
    return BENCH_SCALE
