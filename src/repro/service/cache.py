"""Bounded LRU result cache with eviction and invalidation counters.

Stores finished :class:`~repro.engine.report.RunReport` objects under
content-addressed request keys
(:func:`~repro.service.fingerprint.request_cache_key`).  Because the
keys are fingerprints of the inputs plus the canonicalised algorithm
configuration, a hit is guaranteed to be the *same computation*: the
cached report is returned as-is, byte-identical to the run that
produced it.

Bound overflow counts evictions, and explicit invalidation — a catalog
name re-bound to new content — counts invalidations separately.  Hits
and misses are counted once, in the service's ledger
(:class:`~repro.service.stats.ServiceLedger`), not here.

Not thread-safe by itself; the owning service serialises access.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.engine.report import RunReport
from repro.service.fingerprint import CacheKey


class ResultCache:
    """LRU mapping of request keys to finished :class:`RunReport`\\ s.

    Parameters
    ----------
    max_entries:
        Upper bound on cached reports; the least recently used entry
        is evicted on overflow.  ``None`` disables the bound.
    """

    def __init__(self, max_entries: int | None = 256) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self._entries: OrderedDict[CacheKey, RunReport] = OrderedDict()
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> RunReport | None:
        """The cached report for ``key`` (refreshing recency), or None."""
        report = self._entries.get(key)
        if report is not None:
            self._entries.move_to_end(key)
        return report

    def put(self, key: CacheKey, report: RunReport) -> None:
        """Store a report, evicting least-recently-used overflow."""
        self._entries[key] = report
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry whose key references ``fingerprint``.

        A request key references the fingerprints of both join sides
        (its first two components); results computed from content that
        is no longer served are stale on either side.  Returns the
        number of entries dropped and counts them as invalidations.
        """
        doomed = [key for key in self._entries if fingerprint in key[:2]]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def entries_for_fingerprint(
        self, fingerprint: str
    ) -> list[tuple[CacheKey, RunReport]]:
        """Every ``(key, report)`` whose key references ``fingerprint``.

        A peek for the delta-patch path: no recency refresh — the
        entries are not being *served*, they are about to be rewritten
        under post-delta keys.
        """
        return [
            (key, report)
            for key, report in self._entries.items()
            if fingerprint in key[:2]
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(size={len(self._entries)}, "
            f"evictions={self.evictions})"
        )
