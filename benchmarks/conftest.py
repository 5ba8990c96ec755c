"""Shared benchmark configuration.

Every benchmark takes one table or figure of the paper through the
same code path as ``python -m repro.harness.experiments`` — which runs
each measurement on a fresh
:class:`~repro.engine.workspace.SpatialWorkspace` (cold caches between
phases, nothing shared between runs) — and then asserts the *shape*
the paper reports (who wins, roughly by how much).  Table I and
Figs. 10 and 11 read their rows from the figure golden
(``tests/test_paper_figures_golden.py``), which runs those experiments
at this scale and pins every row; their shape assertions then guard
any re-recording of it.  Absolute numbers are simulated-cost units, not
hours: the disk is simulated, and only the shapes carry over.

For closer-to-paper sizes run the harness itself with ``--scale 1.0``.
"""

import pytest

from tests.test_paper_figures_golden import GOLDEN, ROW_FIELDS

#: Multiplies the harness's default sizes; keeps the suite in tier-1.
BENCH_SCALE = 0.25


def golden_rows(figure: str) -> list[dict]:
    """One figure's rows at :data:`BENCH_SCALE`, as the golden pins them."""
    return [dict(zip(ROW_FIELDS, row)) for row in GOLDEN[BENCH_SCALE][figure]]


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
