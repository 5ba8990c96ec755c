"""Experiment harness.

All measurement flows through the engine's
:class:`~repro.engine.workspace.SpatialWorkspace` (one fresh workspace
per run, cold caches between phases):

:mod:`~repro.harness.runner` runs one algorithm over one dataset pair
with cold caches and collects comparable statistics;
:mod:`~repro.harness.experiments` defines one entry point per table and
figure of the paper's evaluation (Section VII);
:mod:`~repro.harness.report` renders paper-style tables.

Command line::

    python -m repro.harness.experiments all          # every experiment
    python -m repro.harness.experiments fig10        # one experiment
    python -m repro.harness.experiments fig10 --scale 2.0
"""

from repro.harness.runner import pbsm_resolution, run_pair
from repro.harness.report import format_table

__all__ = ["run_pair", "pbsm_resolution", "format_table"]
