"""Latency percentiles and per-class latency records.

Join work is counted elsewhere — pages read, written and tested live in
:class:`~repro.joins.base.JoinStats` and
:class:`~repro.storage.disk.DiskStats` — so this module holds only what
the serving tiers report about wall-clock latency:
:func:`percentile`, :func:`latency_summary` and the windowed
:class:`LatencyRecord`.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from repro.geometry.slots import SlotPickleMixin


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 for an empty input.

    Latency reporting runs on whatever samples exist — including none
    at all (a service that has served no requests yet, a batch with
    zero outcomes) — so the degenerate cases must answer harmlessly
    instead of dividing by zero.

    >>> percentile([3.0, 1.0, 2.0], 50)
    2.0
    >>> percentile([], 99)
    0.0
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """Count / mean / p50 / p90 / p99 of a latency sample, all in seconds.

    Safe on empty samples (all zeros), which is how per-algorithm
    service statistics report algorithms that have not run yet.
    """
    values = [float(v) for v in seconds]
    n = len(values)
    return {
        "count": float(n),
        "mean_s": (sum(values) / n) if n else 0.0,
        "p50_s": percentile(values, 50),
        "p90_s": percentile(values, 90),
        "p99_s": percentile(values, 99),
    }


class LatencyRecord(SlotPickleMixin):
    """Latency accounting that stays O(1) per request forever.

    ``count``/``total`` accumulate over the owner's whole lifetime
    (exact count and mean); the percentile sample is a bounded window
    of the most recent observations, so a service that has absorbed
    millions of requests neither grows without bound nor re-sorts its
    entire history on every stats call.

    Records are picklable and **mergeable**: the sharded service ships
    each shard's per-algorithm records over the wire and folds them
    into one aggregate view with :meth:`merge` — lifetime counts add
    exactly, and the merged percentile window is a systematic sample
    of both windows, so no shard's recent behaviour is drowned out by
    another's.
    """

    __slots__ = ("count", "total", "recent")

    #: Percentile window: recent enough to reflect current behaviour,
    #: large enough that p99 rests on ~10 samples.
    WINDOW = 1024

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.recent: deque[float] = deque(maxlen=self.WINDOW)

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.recent.append(seconds)

    def copy(self) -> "LatencyRecord":
        """An independent snapshot (safe to ship across processes)."""
        out = LatencyRecord()
        out.count = self.count
        out.total = self.total
        out.recent.extend(self.recent)
        return out

    def merge(self, other: "LatencyRecord") -> None:
        """Fold ``other`` into this record (shard aggregation).

        Counts and totals add exactly.  When the combined windows
        overflow the bound, every k-th sample of the interleaved
        combination is kept — a deterministic systematic sample that
        preserves both contributors' distributions instead of letting
        the later deque evict the earlier one wholesale.
        """
        self.count += other.count
        self.total += other.total
        combined = list(self.recent) + list(other.recent)
        if len(combined) > self.WINDOW:
            step = len(combined) / self.WINDOW
            combined = [
                combined[min(int(i * step), len(combined) - 1)]
                for i in range(self.WINDOW)
            ]
        self.recent = deque(combined, maxlen=self.WINDOW)

    def summary(self) -> dict[str, float]:
        """Lifetime count/mean plus windowed p50/p90/p99."""
        row = latency_summary(self.recent)
        row["count"] = float(self.count)
        row["mean_s"] = self.total / self.count if self.count else 0.0
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyRecord(count={self.count}, total={self.total:.6f}s)"
