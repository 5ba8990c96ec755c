"""The metric catalogue and the few statistics every runner shares.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds listed here (the driver reads that file; the
contract self-test checks the two agree).  What the JSON cannot carry —
which workloads a metric applies to and which end-to-end number a layer
metric is expected to move — lives here and in ``README.md``.
"""

from __future__ import annotations

import resource
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from bench.speed import Calibrator

T = TypeVar("T")

COLD = ("cold_uniform", "cold_skewed")
SERVE = ("serve_single", "serve_sharded")
ALL = COLD + SERVE

#: One line per workload, copied into ``BENCHMARK.json``.
WORKLOADS = {
    "cold_uniform": (
        "library path on uniform data: sketch, plan, two index builds, "
        "crawl/walk/grid-hash; no serving layer runs, so service.* "
        "changes must show nothing here"
    ),
    "cold_skewed": (
        "the paper's claim: same core layer on massive-cluster data, "
        "where adaptive walk, thresholds and layout transformations do "
        "the work; a crawl tuned to uniform data regresses here"
    ),
    "serve_single": (
        "SpatialQueryService under 2 closed-loop clients: hits, unique "
        "misses, range queries and writes interleave, so catalog, cache, "
        "patching and index store are stressed beside core"
    ),
    "serve_sharded": (
        "identical traffic against ShardedQueryService(2) in process "
        "mode: the difference to serve_single is the sharded tier "
        "(process hop, pickled replies, shm publish, admission)"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: ``"lower"`` or ``"higher"``.
    better: str
    #: Workloads the metric is defined on.  The driver requires every
    #: metric on every workload; elsewhere the JSON line carries 0 and
    #: the printed table leaves the metric out.
    on: tuple[str, ...]
    #: For layer metrics: the end-to-end metric(s) it should move.
    moves: str = ""
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen before a change is a regression.
    bound: float | None = None


#: Every bound is the contract's maximum: across ten seeds the spreads
#: of these metrics are 1-18 % on this sandbox even at the reference
#: speed (README, "Steadiness"), and a bound is meant to be three
#: spreads wide.
END_TO_END = (
    Metric("setup_s", "s", "lower", ALL, bound=0.25),
    Metric("ops_per_s", "1/s", "higher", ALL, bound=0.25),
    Metric("op_p90_ms", "ms", "lower", ALL, bound=0.25),
    Metric("miss_p50_ms", "ms", "lower", ALL, bound=0.25),
    Metric("miss_p90_ms", "ms", "lower", ALL, bound=0.25),
    Metric("sim_cost_per_join", "cost", "lower", ALL, bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", ALL, bound=0.25),
)


_SHARDED = ("serve_sharded",)
_SINGLE = ("serve_single",)

PER_LAYER = (
    # Client-observed class latencies: end-to-end in nature, listed here
    # because the driver wants every end-to-end metric on every workload
    # and these exist only where a service answers (README, "demoted").
    Metric("client.op_p50_ms", "ms", "lower", ALL, "ops_per_s"),
    Metric("client.hit_p50_ms", "ms", "lower", SERVE, "client.op_p50_ms"),
    Metric("client.range_p50_ms", "ms", "lower", SERVE, "client.op_p50_ms"),
    Metric("client.range_p90_ms", "ms", "lower", SERVE, "op_p90_ms"),
    Metric("client.write_p50_ms", "ms", "lower", SERVE, "op_p90_ms, ops_per_s"),
    # core
    Metric("core.index_build_ms", "ms", "lower", COLD, "miss_p50_ms, ops_per_s"),
    Metric("core.join_ms", "ms", "lower", COLD, "miss_p50_ms, ops_per_s"),
    Metric("core.pages_read", "count", "lower", COLD, "sim_cost_per_join (must not move unasked)"),
    Metric("core.intersection_tests", "count", "lower", COLD, "sim_cost_per_join"),
    Metric("core.metadata_comparisons", "count", "lower", COLD, "sim_cost_per_join"),
    Metric("core.index_pages_written", "count", "lower", COLD, "sim_cost_per_join"),
    Metric("core.pairs_per_test", "ratio", "higher", COLD, "miss_p50_ms"),
    Metric("core.role_switches", "count", "lower", COLD, "proves which workload transforms"),
    Metric("core.splits_to_unit", "count", "lower", COLD, "proves which workload transforms"),
    Metric("core.splits_to_element", "count", "lower", COLD, "proves which workload transforms"),
    Metric("core.index_builds", "count", "lower", SERVE, "client.range_p90_ms, miss_p50_ms"),
    # index / joins
    Metric("index.str_partition_ms", "ms", "lower", COLD, "core.index_build_ms -> miss_p50_ms"),
    Metric("joins.grid_hash_ms", "ms", "lower", ("cold_uniform",), "miss_p50_ms (expected small)"),
    Metric("joins.plane_sweep_ms", "ms", "lower", ("cold_uniform",), "miss_p50_ms (expected small)"),
    Metric("joins.pbsm_join_ms", "ms", "lower", SERVE, "miss_p50_ms"),
    Metric("joins.delta_join_ms", "ms", "lower", SERVE, "client.write_p50_ms"),
    # stats / engine
    Metric("stats.sketch_ms", "ms", "lower", COLD, "miss_p50_ms"),
    Metric("stats.sketch_apply_delta_ms", "ms", "lower", _SINGLE, "client.write_p50_ms"),
    Metric("engine.plan_ms", "ms", "lower", COLD, "miss_p50_ms"),
    Metric("engine.workspace_glue_ms", "ms", "lower", COLD, "miss_p50_ms"),
    Metric("engine.executor_run_ms", "ms", "lower", SERVE, "miss_p50_ms"),
    # storage / streaming
    Metric("storage.fingerprint_ms", "ms", "lower", SERVE, "client.write_p50_ms, setup_s"),
    Metric("storage.fingerprint_calls", "count", "lower", SERVE, "client.write_p50_ms, setup_s"),
    Metric("storage.shm.publish_ms", "ms", "lower", _SHARDED, "client.write_p50_ms, setup_s"),
    Metric("storage.shm.attach_ms", "ms", "lower", _SHARDED, "client.write_p50_ms, setup_s"),
    Metric("streaming.delta_apply_ms", "ms", "lower", SERVE, "client.write_p50_ms"),
    # service
    Metric("service.cache.hit_rate", "ratio", "higher", SERVE, "ops_per_s, client.op_p50_ms"),
    Metric("service.cache.evictions", "count", "lower", SERVE, "ops_per_s"),
    Metric("service.cache.invalidations", "count", "lower", SERVE, "ops_per_s"),
    Metric("service.cache.probe_us", "us", "lower", _SINGLE, "client.hit_p50_ms"),
    Metric("service.catalog.resolve_us", "us", "lower", _SINGLE, "client.hit_p50_ms"),
    Metric("service.submit_glue_ms", "ms", "lower", SERVE, "miss_p50_ms"),
    Metric("service.apply_delta_ms", "ms", "lower", SERVE, "client.write_p50_ms"),
    Metric("service.delta_patches", "count", "higher", SERVE, "service.cache.hit_rate -> ops_per_s"),
    Metric("service.delta_patch_fallbacks", "count", "lower", SERVE, "service.cache.hit_rate -> ops_per_s"),
    Metric("service.patch_rate", "ratio", "higher", SERVE, "service.cache.hit_rate -> ops_per_s"),
    Metric("service.stale_fill_skips", "count", "lower", SERVE, "ops_per_s (wasted work)"),
    Metric("service.stale_index_drops", "count", "lower", SERVE, "ops_per_s (wasted work)"),
    Metric("service.duplicate_miss_share", "ratio", "lower", _SINGLE, "miss_p50_ms, ops_per_s"),
    Metric("service.sharded.hop_ms", "ms", "lower", _SHARDED, "client.hit_p50_ms, client.op_p50_ms"),
    Metric("service.sharded.queue_wait_ms", "ms", "lower", _SHARDED, "miss_p50_ms, miss_p90_ms"),
    Metric("service.sharded.shard_busy_share", "ratio", "higher", _SHARDED, "ops_per_s"),
    Metric("service.sharded.shard_imbalance", "ratio", "lower", _SHARDED, "ops_per_s"),
    Metric("service.sharded.rejected", "count", "lower", _SHARDED, "failed ops (expected 0)"),
    Metric("service.sharded.degraded", "count", "lower", _SHARDED, "failed ops (expected 0)"),
    Metric("service.sharded.respawns", "count", "lower", _SHARDED, "failed ops (expected 0)"),
    Metric("service.wire.reply_bytes", "B", "lower", _SHARDED, "client.hit_p50_ms, miss_p50_ms"),
    Metric("service.wire.pickle_ms", "ms", "lower", _SHARDED, "client.hit_p50_ms, miss_p50_ms"),
    # the trace itself
    Metric("trace.coverage", "ratio", "higher", COLD, "quality of the trace"),
    Metric("trace.overhead_share", "ratio", "lower", ALL, "quality of the trace"),
)


def catalogue(trace: bool) -> tuple[Metric, ...]:
    return PER_LAYER if trace else END_TO_END


def p50(values) -> float:
    return float(np.median(values))


def p90(values) -> float:
    return float(np.percentile(values, 90))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest of its reaped
    children (the shard processes, once ``close()`` has joined them)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


class Measured(dict):
    """``name -> (value, samples)`` as one runner measured it."""

    def put(self, name: str, value: float, samples: int) -> None:
        self[name] = (float(value), int(samples))

    def timing(
        self, name: str, seconds, *, quantile=p50, scale=1e3, slowdown=1.0
    ) -> None:
        """Record a latency statistic, or nothing without samples.

        ``slowdown`` is how much slower than the reference speed the
        machine ran while ``seconds`` were measured (``bench/speed.py``).
        """
        if len(seconds):
            self.put(name, quantile(seconds) * scale / slowdown, len(seconds))


@dataclass
class Result:
    """What one run of one workload produced."""

    workload: str
    trace: bool
    attempted: int
    failed: int
    #: Inputs matched their pin and every whole-run check passed
    #: (failed ops are counted separately).
    checks_ok: bool
    measured: Measured
    #: Human-readable lines: what was checked, warnings.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.checks_ok and self.failed == 0


def timed_setup(
    build: Callable[[], T],
    repeats: int,
    process_start: float | None,
    teardown: Callable[[T], None] | None = None,
) -> tuple[T, float]:
    """Set up ``repeats`` times; keep the last state, report ``setup_s``.

    ``setup_s`` runs from the start of the workload process to the first
    measured op.  Imports happen once per process, so it is the time
    from ``process_start`` to the first build (imports, argument
    parsing) plus the median build; ``None`` leaves the first part out
    (in-process callers such as the self-test).  Like every timing it is
    scaled to the reference machine speed, sampled around each build.
    """
    before = time.perf_counter()
    head = 0.0 if process_start is None else before - process_start
    calibrator = Calibrator()
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        calibrator.sample()
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
        calibrator.sample()
    return state, (head + p50(times)) / calibrator.window_slowdown()
