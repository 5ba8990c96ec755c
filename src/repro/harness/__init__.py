"""Experiment harness.

All measurement flows through the engine's
:class:`~repro.engine.workspace.SpatialWorkspace` (one fresh workspace
per run, cold caches between phases), whose algorithms charge every
phase through :class:`~repro.joins.base.SpatialJoinAlgorithm`:

:mod:`~repro.harness.experiments` defines one entry point per table and
figure of the paper's evaluation (Section VII), sized by
:mod:`~repro.harness.runner`;
:mod:`~repro.harness.report` renders paper-style tables.

Command line::

    python -m repro.harness.experiments all          # every experiment
    python -m repro.harness.experiments fig10        # one experiment
    python -m repro.harness.experiments fig10 --scale 2.0
"""

from repro.harness.report import format_table

__all__ = ["format_table"]
