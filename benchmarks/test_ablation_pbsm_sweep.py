"""Ablation: the PBSM configuration sweep (paper Section VII-A).

"Given the absence of heuristics, we set the configuration of all
approaches other than TRANSFORMERS for the best performance identified
with a parameter sweep."  This bench runs that sweep for PBSM's grid
resolution.

What the sweep shows at simulator scale:

* every resolution returns the identical join result;
* the fine end degrades steeply — replication, partial pages and
  scattered reads, exactly the paper's trade-off description;
* the *coarse* end (2³ cells) keeps improving, unlike on real hardware:
  the simulator's flat CPU model cannot charge the cache-thrashing of
  joining giant cells in memory (the effect the grid-tuning paper
  [Tauheed et al., BICOD '15] exists to fight), and the read-ahead
  window makes a handful of interleaved cell streams look sequential.
  The harness therefore pins PBSM to the paper's *relative* granularity
  (a few data pages per cell), which EXPERIMENTS.md documents as a
  deviation-with-cause.
"""

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import SpatialWorkspace, pbsm_resolution
from repro.harness.report import format_table
from repro.joins import PBSMJoin

from benchmarks.conftest import run_once

RESOLUTIONS = (2, 3, 4, 6, 8, 12, 16)


def sweep(scale: float) -> list[dict]:
    n = max(300, round(6_000 * scale))
    space = scaled_space(2 * n)
    a = uniform_dataset(n, seed=41, name="A", space=space)
    b = uniform_dataset(n, seed=42, name="B", id_offset=10**9, space=space)
    rows = []
    for resolution in RESOLUTIONS:
        algo = PBSMJoin(space=space, resolution=resolution)
        rec = SpatialWorkspace().join(a, b, algo)
        row = rec.row()
        row["resolution"] = resolution
        rows.append(row)
    rows.append({"resolution": "heuristic", "pick": pbsm_resolution(2 * n)})
    return rows


def test_pbsm_resolution_sweep(benchmark, scale):
    rows = run_once(benchmark, sweep, scale)
    sweep_rows = rows[:-1]
    heuristic_pick = rows[-1]["pick"]
    print()
    print(format_table(sweep_rows, title="Ablation — PBSM grid resolution"))
    print(f"harness heuristic picks resolution {heuristic_pick}")

    costs = {r["resolution"]: r["join_cost"] for r in sweep_rows}

    # All configurations produce the same answer.
    assert len({r["pairs"] for r in sweep_rows}) == 1

    # The fine end degrades steeply: the finest grid costs at least
    # twice the heuristic's neighbourhood (replication + partial pages
    # + scattered reads).
    nearest = min(RESOLUTIONS, key=lambda r: abs(r - heuristic_pick))
    assert costs[RESOLUTIONS[-1]] > 2.0 * costs[nearest]

    # Costs grow monotonically towards the fine end beyond the
    # heuristic's pick.
    beyond = [costs[r] for r in RESOLUTIONS if r >= nearest]
    assert beyond == sorted(beyond)

    # The degenerate coarse end is cheaper at simulator scale (see the
    # module docstring for why that is an artefact); record the gap so
    # a future cache-aware CPU model can be validated against it.
    fine = [r for r in sweep_rows if r["resolution"] == RESOLUTIONS[-1]][0]
    coarse = [r for r in sweep_rows if r["resolution"] == RESOLUTIONS[0]][0]
    assert fine["join_cost"] > coarse["join_cost"]
