"""Ablation: sensitivity of the headline result to the disk model.

The reproduction's conclusions must not hinge on the exact
random:sequential cost ratio chosen for the simulated disk.  This bench re-runs a Table-I-style comparison under three ratios
spanning a modern SSD-ish 5:1 to the mechanical-disk 80:1 and asserts
the winner never changes.
"""

from repro.core import TransformersJoin
from repro.datagen import scaled_space, uniform_dataset
from repro.engine import SpatialWorkspace, pbsm_resolution
from repro.harness.report import format_table
from repro.joins import PBSMJoin, SynchronizedRTreeJoin
from repro.storage.disk import DiskModel

from benchmarks.conftest import run_once

RATIOS = (5.0, 20.0, 80.0)


def sweep(scale: float) -> list[dict]:
    n = max(200, round(8_000 * scale))
    space = scaled_space(2 * n)
    a = uniform_dataset(n, seed=31, name="A", space=space)
    b = uniform_dataset(n, seed=32, name="B", id_offset=10**9, space=space)
    rows = []
    for ratio in RATIOS:
        model = DiskModel(page_size=1024, random_read_cost=ratio)
        for algo in (
            TransformersJoin(),
            PBSMJoin(space=space, resolution=pbsm_resolution(2 * n)),
            SynchronizedRTreeJoin(),
        ):
            rec = SpatialWorkspace(disk_model=model).join(a, b, algo)
            row = rec.row()
            row["random_seq_ratio"] = ratio
            rows.append(row)
    return rows


def test_winner_stable_across_disk_models(benchmark, scale):
    rows = run_once(benchmark, sweep, scale)
    print()
    print(format_table(rows, title="Ablation — random:sequential cost ratio"))

    for ratio in RATIOS:
        subset = {
            r["algorithm"]: r["join_cost"]
            for r in rows
            if r["random_seq_ratio"] == ratio
        }
        tr = subset["TRANSFORMERS"]
        assert tr == min(subset.values()), f"TR lost at ratio {ratio}"

    # The gap widens as seeks get more expensive (TR is the most
    # sequential-friendly algorithm).
    gaps = []
    for ratio in RATIOS:
        subset = {
            r["algorithm"]: r["join_cost"]
            for r in rows
            if r["random_seq_ratio"] == ratio
        }
        gaps.append(subset["PBSM"] / subset["TRANSFORMERS"])
    assert gaps == sorted(gaps)
