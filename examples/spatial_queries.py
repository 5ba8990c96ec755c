"""Beyond joins: saved indexes and spatial range queries.

A TRANSFORMERS index is a per-dataset artefact (Section VII-C1): build
it once, save it, and serve spatial workloads from it later — joins
against new partners *and* classic range queries, both through the
same walk/crawl machinery.  This example builds an index through a
:class:`~repro.engine.SpatialWorkspace`, saves it to disk, reopens it
in a "new session" with :meth:`SpatialWorkspace.from_saved`, and
answers range queries, verifying against a full scan.

Run with::

    python examples/spatial_queries.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import SpatialWorkspace, dense_cluster, scaled_space
from repro.core import save_index
from repro.geometry.box import Box

N = 20_000


def main() -> None:
    space = scaled_space(N)
    data = dense_cluster(N, seed=3, name="observations", space=space)

    # Session 1: build and persist the index.
    ws = SpatialWorkspace()
    index, build_stats = ws.build_index(data, algorithm="transformers")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "observations.idx.npz"
        save_index(index, str(path))
        print(
            f"indexed {N} elements into {index.num_units} space units / "
            f"{index.num_nodes} space nodes; saved "
            f"{path.stat().st_size / 1024:.0f} KiB to {path.name}"
        )

        # Session 2: reopen the saved index in a fresh workspace and
        # query it by dataset name — no disk wiring, no rebuild.
        ws2 = SpatialWorkspace.from_saved(str(path))
        loaded = ws2.index_for("observations")
        rng = np.random.default_rng(7)
        print(f"\n{'query center':>24} {'hits':>6} {'pages read':>11} {'ok':>3}")
        for _ in range(5):
            center = rng.uniform(space.lo, space.hi)
            query = Box(tuple(center - 2.0), tuple(center + 2.0))
            t0 = time.perf_counter()
            hits = ws2.range_query("observations", query)
            elapsed = time.perf_counter() - t0
            expected = np.sort(data.ids[data.boxes.intersects_box(query)])
            ok = np.array_equal(hits, expected)
            label = "(" + ", ".join(f"{c:.0f}" for c in center) + ")"
            print(
                f"{label:>24} {len(hits):>6} "
                f"{ws2.disk.stats.pages_read:>11} "
                f"{'✓' if ok else '✗':>3}   ({elapsed*1000:.1f} ms)"
            )
        print(
            f"\nfull scan would read ~{loaded.num_units} data pages; the "
            "index touches only the candidate neighbourhood per query."
        )


if __name__ == "__main__":
    main()
