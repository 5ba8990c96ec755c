"""Beyond joins: spatial range queries from a cached index.

A TRANSFORMERS index is a per-dataset artefact (Section VII-C1): build
it once and serve spatial workloads from it — joins against new
partners *and* classic range queries, both through the same walk/crawl
machinery.  This example builds an index through a
:class:`~repro.engine.SpatialWorkspace`, answers five range queries from
the workspace's cached index and verifies each against a full scan.

Run with::

    python examples/spatial_queries.py
"""

import time

import numpy as np

from repro import SpatialWorkspace, dense_cluster, scaled_space
from repro.geometry.box import Box

N = 20_000


def main() -> None:
    space = scaled_space(N)
    data = dense_cluster(N, seed=3, name="observations", space=space)

    ws = SpatialWorkspace()
    index, _ = ws.build_index(data, algorithm="transformers")
    print(
        f"indexed {N} elements into {index.num_units} space units / "
        f"{index.num_nodes} space nodes"
    )

    # Every query below is served from the cached index: no rebuild.
    rng = np.random.default_rng(7)
    print(f"\n{'query center':>24} {'hits':>6} {'pages read':>11} {'ok':>3}")
    for _ in range(5):
        center = rng.uniform(space.lo, space.hi)
        query = Box(tuple(center - 2.0), tuple(center + 2.0))
        t0 = time.perf_counter()
        hits = ws.range_query(data, query)
        elapsed = time.perf_counter() - t0
        expected = np.sort(data.ids[data.boxes.intersects_box(query)])
        ok = np.array_equal(hits, expected)
        label = "(" + ", ".join(f"{c:.0f}" for c in center) + ")"
        print(
            f"{label:>24} {len(hits):>6} "
            f"{ws.disk.stats.pages_read:>11} "
            f"{'✓' if ok else '✗':>3}   ({elapsed*1000:.1f} ms)"
        )
    print(
        f"\nfull scan would read ~{index.num_units} data pages; the "
        "index touches only the candidate neighbourhood per query."
    )


if __name__ == "__main__":
    main()
