"""Outside-in tracing: spans recorded from the benchmark's own files.

Nothing in ``repro`` knows about this module.  A traced run times the
calls *into* each layer from outside — either by making the calls
itself (the staged cold join in ``cold.py``) or by swapping a public
callable for a wrapper that records a span around it (:meth:`Tracer.wrap`)
for the length of one ``with`` block.  Spans carry a name, start, end,
the span that caused them and the id of the client op they belong to;
they stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from bench import ROOT

OUT_DIR = ROOT / "bench" / "out"

#: Public callables a traced serve run wraps, as ``span name ->
#: "module:attribute.path"``.  A target that no longer resolves makes
#: its metric absent (with a warning); it never fails a run.
SERVE_TARGETS = {
    "service.cache.probe": "repro.service.cache:ResultCache.get",
    "service.catalog.resolve": "repro.service.catalog:DatasetCatalog.resolve",
    "storage.fingerprint": "repro.service.fingerprint:dataset_fingerprint",
    "engine.executor_run": "repro.engine.executor:BatchExecutor.run",
    "core.index_build": "repro.core.indexing:build_transformers_index",
    "joins.delta_join": "repro.joins.delta:delta_join",
    "stats.sketch_apply_delta": "repro.stats.sketch:DatasetSketch.apply_delta",
    "streaming.delta_apply": "repro.streaming.delta:DatasetDelta.apply",
    "storage.shm.publish": "repro.storage.shm:SharedDatasetPool.publish",
}


class Tracer:
    """An in-memory span recorder with per-thread nesting."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent id or None, op id or None)``
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.warnings: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record one span; ``op`` tags a root span and is inherited."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if op is None and stack:
            op = stack[-1][1]
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL: clients share the list.
            self.spans.append((span_id, name, start, end, parent, op))

    # -- wrapping public callables ---------------------------------------
    def wrap(self, name: str, target: str) -> None:
        """Swap ``"module:attr.path"`` for a span-recording wrapper.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded ``repro`` module that imported it by
        name, because ``from x import f`` binds the function object, not
        the attribute.  :meth:`unwrap` restores everything.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.warnings.append(
                f"trace target {target} for {name} is gone ({exc}); "
                "its metric is absent"
            )
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        if parents:
            holders = [owner]
        else:
            holders = [
                module
                for mod_name, module in list(sys.modules.items())
                if mod_name.split(".")[0] == "repro"
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, traced)

    def unwrap(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    @contextmanager
    def wrapping(self, targets: dict[str, str]):
        for name, target in targets.items():
            self.wrap(name, target)
        try:
            yield self
        finally:
            self.unwrap()

    # -- reading ---------------------------------------------------------
    def durations(self, name: str, since: float = 0.0) -> list[float]:
        """Seconds of every span called ``name`` that a client op caused
        (set-up and the load generator's own calls carry no op id)."""
        return [
            end - start
            for _, span_name, start, end, _, op in self.spans
            if span_name == name and op is not None and start >= since
        ]

    def per_op(self, name: str, since: float = 0.0) -> list[float]:
        """Seconds spent in ``name`` per client op that entered it at all
        (one op may call a memoised function several times)."""
        totals: dict[int, float] = defaultdict(float)
        for _, span_name, start, end, _, op in self.spans:
            if span_name == name and op is not None and start >= since:
                totals[op] += end - start
        return list(totals.values())

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def write(self, workload: str, extra: dict[str, object]) -> Path:
        """Dump the spans of one run to ``bench/out/trace-<workload>.json``."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}.json"
        payload = {
            "workload": workload,
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "self_seconds": self.self_times(),
            "warnings": self.warnings,
            **extra,
        }
        path.write_text(json.dumps(payload))
        return path
