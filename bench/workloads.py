"""Inputs of the four workloads: sizes, datasets, op schedules, digests.

Everything here is a pure function of ``(workload, seed, scale)``; the
program under test only ever sees the generated ``Dataset``,
``JoinRequest``, ``Box`` and ``DatasetDelta`` objects.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro import (
    Box,
    Dataset,
    DriftingClusterStream,
    dataset_fingerprint,
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)

DEFAULT_SEED = 11
ID_STRIDE = 10**9


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` is what gets measured)."""

    name: str
    #: Elements per side of a cold join.
    cold_n: int
    #: Distinct dataset pairs a cold workload rotates over.  More pairs
    #: on the skewed workload: cluster placement makes its per-pair cost
    #: vary, and the seed-to-seed spread falls with the pairs averaged.
    cold_pairs: dict[str, int]
    #: Elements per catalog dataset of the serve workloads.
    serve_n: int
    #: How often set-up is repeated (``setup_s`` is the median).
    setup_repeats: int
    #: Default length of the measured window.
    seconds: float
    #: Cap on the ops of one client in one window.  ``None`` at full
    #: scale (the window is timed); the tiny scale counts ops instead so
    #: the contract self-test sees the same ops on any machine.
    max_ops: int | None
    #: Kernel probe size (``joins.grid_hash_ms`` / ``plane_sweep_ms``).
    probe_n: int


FULL = Scale(
    name="full",
    cold_n=12_000,
    cold_pairs={"cold_uniform": 8, "cold_skewed": 32},
    serve_n=3_000,
    setup_repeats=3,
    seconds=20.0,
    max_ops=None,
    probe_n=3_500,
)
TINY = Scale(
    name="tiny",
    cold_n=1_500,
    cold_pairs={"cold_uniform": 2, "cold_skewed": 3},
    serve_n=400,
    setup_repeats=1,
    seconds=60.0,
    max_ops=36,
    probe_n=400,
)
SCALES = {"full": FULL, "tiny": TINY}


# ----------------------------------------------------------------------
# cold_*: rotating dataset pairs
# ----------------------------------------------------------------------
def cold_pairs(
    workload: str, seed: int, scale: Scale
) -> list[tuple[Dataset, Dataset]]:
    """The workload's dataset pairs: ``gen(n) x uniform(n)`` per pair."""
    n = scale.cold_n
    space = scaled_space(2 * n)
    left = uniform_dataset if workload == "cold_uniform" else massive_cluster
    pairs = []
    for k in range(scale.cold_pairs[workload]):
        base = seed * 1000 + 2 * k
        pairs.append(
            (
                left(n, seed=base + 1, name=f"A{k}", space=space),
                uniform_dataset(
                    n, seed=base + 2, name=f"B{k}",
                    id_offset=ID_STRIDE, space=space,
                ),
            )
        )
    return pairs


# ----------------------------------------------------------------------
# serve_*: catalog and op schedule
# ----------------------------------------------------------------------
STATIC_NAMES = ("s0", "s1", "s2")
LIVE = "live"
NAMES = STATIC_NAMES + (LIVE,)
CLIENTS = 2

#: Op kinds per block of 100 scheduled ops.  The schedule is
#: *stratified*: every block holds exactly these counts, the seed only
#: shuffles their order and draws the operands.  (With independent
#: draws the handful of rebinds in a window — each one invalidates six
#: hot keys, i.e. buys six 100+ ms misses — made throughput swing by
#: +-20 % from seed to seed.)  The last entry is the write slot, which
#: only client 0 turns into writes; client 1 spends it on hot joins.
MIX = {"hot": 45, "unique": 15, "range": 28, "write": 12}
#: Of client 0's write slots per block: deltas, the rest re-register a
#: static name with its other variant.
DELTAS_PER_BLOCK = 10
#: Distinct ``within=`` values a unique-key join draws from.
_WITHIN_VALUES = 997
#: Schedule prefix that enters ``inputs_digest`` (per client).
DIGEST_OPS = 2_000
DIGEST_DELTAS = 8


@dataclass(frozen=True)
class Catalog:
    """What a serve workload registers: three static names with two
    content variants each, and one name fed by a delta stream."""

    space: Box
    variants: dict[str, tuple[Dataset, Dataset]]
    stream_seed: int
    n: int

    def stream(self) -> DriftingClusterStream:
        """A fresh stream; equal parameters replay equal deltas."""
        return DriftingClusterStream(
            self.n,
            seed=self.stream_seed,
            churn=0.02,
            space=self.space,
            name=LIVE,
            id_offset=len(STATIC_NAMES) * ID_STRIDE,
        )


def serve_catalog(seed: int, scale: Scale) -> Catalog:
    n = scale.serve_n
    space = scaled_space(2 * n)
    generators = (uniform_dataset, dense_cluster, uniform_cluster)
    variants = {}
    for i, (name, gen) in enumerate(zip(STATIC_NAMES, generators)):
        variants[name] = tuple(
            gen(
                n, seed=seed * 1000 + 10 * i + v, name=name,
                id_offset=i * ID_STRIDE, space=space,
            )
            for v in (0, 1)
        )
    return Catalog(space, variants, seed * 1000 + 99, n)


@dataclass(frozen=True)
class Op:
    """One scheduled client op.

    ``kind`` is ``"join"``, ``"range"``, ``"delta"`` or ``"rebind"``;
    the unused fields of a kind stay at their defaults.
    """

    kind: str
    a: str = ""
    b: str = ""
    algorithm: str = "auto"
    within: float | None = None
    box: Box | None = None

    def row(self) -> list[object]:
        box = None if self.box is None else [list(self.box.lo), list(self.box.hi)]
        return [self.kind, self.a, self.b, self.algorithm, self.within, box]


def client_ops(seed: int, client: int, space: Box) -> Iterator[Op]:
    """The endless op schedule of one client, from its own seeded RNG."""
    rng = np.random.default_rng([seed, client])
    lo = np.asarray(space.lo)
    extent = np.asarray(space.hi) - lo
    # Distinct start and a stride coprime to the value count: a client
    # never repeats a ``within`` before 997 unique-key joins.
    within_index = int(rng.integers(_WITHIN_VALUES))
    writes = (
        ["delta"] * DELTAS_PER_BLOCK + ["rebind"] * (MIX["write"] - DELTAS_PER_BLOCK)
        if client == 0
        else ["hot"] * MIX["write"]
    )
    block = (
        ["hot"] * MIX["hot"] + ["unique"] * MIX["unique"]
        + ["range"] * MIX["range"] + writes
    )
    while True:
        for kind in rng.permutation(block):
            if kind == "delta":
                yield Op("delta", LIVE)
            elif kind == "rebind":
                yield Op("rebind", STATIC_NAMES[int(rng.integers(len(STATIC_NAMES)))])
            elif kind == "range":
                corner = lo + rng.random(len(lo)) * extent * 0.8
                yield Op(
                    "range", NAMES[int(rng.integers(len(NAMES)))],
                    box=Box(corner, corner + 0.2 * extent),
                )
            else:
                a, b = rng.choice(len(NAMES), size=2, replace=False)
                if kind == "hot":
                    yield Op("join", NAMES[a], NAMES[b])
                else:
                    within_index = (within_index + 331) % _WITHIN_VALUES
                    yield Op(
                        "join", NAMES[a], NAMES[b],
                        algorithm=("transformers", "pbsm")[int(rng.integers(2))],
                        within=0.25 + 0.5 * within_index / _WITHIN_VALUES,
                    )


# ----------------------------------------------------------------------
# Input pinning
# ----------------------------------------------------------------------
def cold_inputs_digest(pairs: list[tuple[Dataset, Dataset]]) -> str:
    """SHA-256 over the content fingerprint of every generated dataset,
    so a later change to ``repro.datagen`` cannot silently change what a
    cold workload measures."""
    digest = hashlib.sha256()
    for a, b in pairs:
        digest.update(dataset_fingerprint(a).encode())
        digest.update(dataset_fingerprint(b).encode())
    return digest.hexdigest()


def serve_inputs_digest(catalog: Catalog, seed: int) -> str:
    """As :func:`cold_inputs_digest`, plus the first deltas of the
    stream and the serialised head of both clients' op schedules."""
    digest = hashlib.sha256()
    for name in STATIC_NAMES:
        for variant in catalog.variants[name]:
            digest.update(dataset_fingerprint(variant).encode())
    stream = catalog.stream()
    digest.update(dataset_fingerprint(stream.base()).encode())
    for delta in stream.ticks(DIGEST_DELTAS):
        digest.update(delta.digest().encode())
    for client in range(CLIENTS):
        ops = client_ops(seed, client, catalog.space)
        rows = [next(ops).row() for _ in range(DIGEST_OPS)]
        digest.update(json.dumps(rows).encode())
    return digest.hexdigest()
