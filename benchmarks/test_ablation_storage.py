"""Ablation: page size and buffer-pool capacity.

The page size sets the granularity of TRANSFORMERS' whole hierarchy
(elements per unit, units per node — Section VI-B ties the levels to
disk pages); the buffer pool sets how much re-read traffic is absorbed.
Neither knob may change who wins, and the buffer knob must behave
monotonically for the algorithm that re-reads (TRANSFORMERS).
"""

from repro.core import TransformersConfig, TransformersJoin
from repro.datagen import scaled_space, uniform_dataset
from repro.engine import SpatialWorkspace, pbsm_resolution
from repro.harness.report import format_table
from repro.joins import PBSMJoin
from repro.storage.disk import DiskModel

from benchmarks.conftest import run_once

PAGE_SIZES = (512, 1024, 2048)
BUFFER_SIZES = (32, 128, 512)


def sweep_pages(scale: float) -> list[dict]:
    n = max(400, round(6_000 * scale))
    space = scaled_space(2 * n)
    a = uniform_dataset(n, seed=61, name="A", space=space)
    b = uniform_dataset(n, seed=62, name="B", id_offset=10**9, space=space)
    rows = []
    for page_size in PAGE_SIZES:
        model = DiskModel(page_size=page_size)
        for algo in (
            TransformersJoin(),
            PBSMJoin(space=space, resolution=pbsm_resolution(2 * n, page_size)),
        ):
            rec = SpatialWorkspace(disk_model=model).join(a, b, algo)
            row = rec.row()
            row["page_size"] = page_size
            rows.append(row)
    return rows


def sweep_buffers(scale: float) -> list[dict]:
    n = max(400, round(8_000 * scale))
    space = scaled_space(2 * n)
    a = uniform_dataset(n, seed=63, name="A", space=space)
    b = uniform_dataset(n, seed=64, name="B", id_offset=10**9, space=space)
    rows = []
    for pages in BUFFER_SIZES:
        config = TransformersConfig(buffer_pages=pages)
        rec = SpatialWorkspace().join(a, b, TransformersJoin(config))
        row = rec.row()
        row["buffer_pages"] = pages
        rows.append(row)
    return rows


def test_page_size_does_not_change_winner(benchmark, scale):
    rows = run_once(benchmark, sweep_pages, scale)
    print()
    print(format_table(rows, title="Ablation — page size"))
    for page_size in PAGE_SIZES:
        subset = {
            r["algorithm"]: r["join_cost"]
            for r in rows
            if r["page_size"] == page_size
        }
        assert subset["TRANSFORMERS"] < subset["PBSM"], page_size
    # All runs agree on the answer.
    assert len({r["pairs"] for r in rows}) == 1


def test_buffer_pool_monotone_for_transformers(benchmark, scale):
    rows = run_once(benchmark, sweep_buffers, scale)
    print()
    print(format_table(rows, title="Ablation — TRANSFORMERS buffer pool"))
    costs = [r["join_cost"] for r in rows]
    # Bigger pools absorb more re-reads: costs must not increase.
    assert costs[0] >= costs[1] >= costs[2]
    assert len({r["pairs"] for r in rows}) == 1
