"""Model-based exploration of the service API.

A Hypothesis state machine drives both serving tiers through random
sequences of catalog, join, resubmission, range and delta actions and checks each
answer against a model: name -> :class:`~repro.joins.base.Dataset`,
with the brute-force oracle for joins and a full scan for range
queries.  After every step:

* join pairs and range ids are byte-identical to the model's (a join
  over inputs that share element ids fails with ``ValueError``, as a
  cold workspace would);
* ``cache_hits + cache_misses == requests``, and the catalog holds
  exactly the model's names;
* every additive counter of ``stats()``, and every latency count, is
  the sum of that counter over its ``per_shard`` rows;
* no cached result references a fingerprint that no name serves;
* no shared-memory segment outlives its content: the router's pool
  holds exactly one segment per served content whose payload is a
  ref (none on the single tier, whose payloads are by reference), and
  on the sharded tier, whose inline shards attach in this process,
  every segment still attached (after ``gc.collect()``) is one of them.

Settings are derandomized and keep no example database, so every run
explores the same sequences.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import JoinRequest
from repro.geometry.box import Box
from repro.joins.base import Dataset
from repro.joins.brute import brute_force_pairs
from repro.service import (
    ShardedQueryService,
    SpatialQueryService,
    dataset_fingerprint,
)
from repro.service.patch import PATCH_MAX_FRACTION
from repro.storage import shm
from repro.streaming import DatasetDelta

#: Elements per dataset; every delta keeps the cardinality.
N = 40
NAMES = ("n0", "n1", "n2")
SPACE = scaled_space(N // 4)
#: Variants per name, each in an id space of its own: two names
#: collide on ids only while one aliases the other's content.
VARIANTS = {
    name: [
        uniform_dataset(
            N, seed=100 * slot + k, name=f"{name}v{k}",
            id_offset=(3 * slot + k) * 10**9, space=SPACE,
        )
        for k in range(3)
    ]
    for slot, name in enumerate(NAMES)
}
#: Inserted ids come from one counter above every variant's id space,
#: so a delta never makes a cached pair's inputs collide.
INSERT_BASE = 10 * 10**9
ALGORITHMS = ("pbsm", "transformers")
#: A small delta is two changed elements, a large one half the data.
SMALL, LARGE = 1, N // 2
assert 2 * SMALL / N <= PATCH_MAX_FRACTION < 2 * LARGE / N

TIERS = {
    "single": SpatialQueryService,
    "sharded": lambda: ShardedQueryService(2, inline=True),
}

SETTINGS = settings(
    max_examples=40,
    stateful_step_count=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ServiceMachine(RuleBasedStateMachine):
    tier = "single"

    def __init__(self) -> None:
        super().__init__()
        self.service = TIERS[self.tier]()
        self.model: dict[str, Dataset] = {}
        self.inserted = 0
        #: Requests sent so far, for resubmissions (cache hits).
        self.sent: list[JoinRequest] = []

    def teardown(self) -> None:
        if isinstance(self.service, ShardedQueryService):
            self.service.close()

    # -- the oracle ----------------------------------------------------
    def _expect_join(self, request: JoinRequest, response) -> None:
        a, b = self.model[request.a], self.model[request.b]
        if np.intersect1d(a.ids, b.ids).size:
            assert not response.ok and response.error_type == "ValueError"
            return
        assert response.ok, (response.error_type, response.error)
        pairs = response.report.result.pairs
        expected = brute_force_pairs(a, b)
        assert pairs.dtype == expected.dtype
        assert pairs.shape == expected.shape
        assert np.ascontiguousarray(pairs).tobytes() == expected.tobytes()

    def _draw_bound(self, data) -> str:
        return data.draw(st.sampled_from(sorted(self.model)))

    def _draw_request(self, data) -> JoinRequest:
        """Two distinct names: a name joined with itself always
        collides on ids (an alias still may)."""
        a = self._draw_bound(data)
        b = data.draw(st.sampled_from([n for n in sorted(self.model) if n != a]))
        return JoinRequest(a, b, data.draw(st.sampled_from(ALGORITHMS)))

    # -- catalog -------------------------------------------------------
    @precondition(lambda self: len(self.model) < len(NAMES))
    @rule(data=st.data(), variant=st.integers(0, 2))
    def register(self, data, variant: int) -> None:
        name = data.draw(
            st.sampled_from([n for n in NAMES if n not in self.model])
        )
        entry = self.service.register(name, VARIANTS[name][variant])
        assert entry.version == 1
        self.model[name] = VARIANTS[name][variant]

    @precondition(lambda self: 0 < len(self.model) < len(NAMES))
    @rule(data=st.data())
    def alias(self, data) -> None:
        source = self._draw_bound(data)
        name = data.draw(
            st.sampled_from([n for n in NAMES if n not in self.model])
        )
        self.service.register(name, self.model[source])
        self.model[name] = self.model[source]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), variant=st.integers(0, 2))
    def rebind(self, data, variant: int) -> None:
        name = self._draw_bound(data)
        self.service.register(name, VARIANTS[name][variant])
        self.model[name] = VARIANTS[name][variant]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unregister(self, data) -> None:
        name = self._draw_bound(data)
        assert self.service.unregister(name).name == name
        del self.model[name]

    # -- queries -------------------------------------------------------
    @precondition(lambda self: len(self.model) > 1)
    @rule(data=st.data())
    def submit(self, data) -> None:
        request = self._draw_request(data)
        self.sent.append(request)
        self._expect_join(request, self.service.submit(request))

    @precondition(lambda self: self.sent)
    @rule(data=st.data())
    def resubmit(self, data) -> None:
        request = data.draw(st.sampled_from(self.sent))
        if {request.a, request.b} <= set(self.model):
            self._expect_join(request, self.service.submit(request))

    @precondition(lambda self: len(self.model) > 1)
    @rule(data=st.data())
    def submit_many_with_a_duplicate(self, data) -> None:
        first, second = self._draw_request(data), self._draw_request(data)
        batch = [first, second, first]
        self.sent.extend((first, second))
        responses = self.service.submit_many(batch)
        for request, response in zip(batch, responses):
            self._expect_join(request, response)
        assert responses[2].key == responses[0].key

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        corner=st.tuples(*[st.integers(0, 3)] * 3),
    )
    def range_query(self, data, corner) -> None:
        name = self._draw_bound(data)
        lo, hi = np.asarray(SPACE.lo), np.asarray(SPACE.hi)
        step = (hi - lo) / 4
        query = Box(
            tuple(lo + step * np.asarray(corner)),
            tuple(lo + step * (np.asarray(corner) + 1.5)),
        )
        dataset = self.model[name]
        expected = np.sort(dataset.ids[dataset.boxes.intersects_box(query)])
        hits = self.service.range_query(name, query)
        assert hits.dtype == expected.dtype
        assert np.ascontiguousarray(hits).tobytes() == expected.tobytes()

    # -- deltas --------------------------------------------------------
    def _delta(self, name: str, changed: int, seed: int) -> DatasetDelta:
        """Delete ``changed`` elements of ``name``'s content and insert
        as many fresh ones: the cardinality stays ``N``."""
        current = self.model[name]
        rng = np.random.default_rng(seed)
        victims = rng.choice(current.ids, size=changed, replace=False)
        ids = INSERT_BASE + self.inserted + np.arange(changed)
        self.inserted += changed
        fresh = uniform_dataset(changed, seed=seed, space=SPACE)
        return DatasetDelta(
            delete_ids=victims,
            insert_ids=ids,
            insert_boxes=fresh.boxes,
        )

    def _apply(self, data, changed: int, seed: int) -> None:
        name = self._draw_bound(data)
        delta = self._delta(name, changed, seed)
        outcome = self.service.apply_delta(name, delta)
        self.model[name] = delta.apply(self.model[name])
        assert outcome.entry.name == name
        assert outcome.entry.fingerprint == dataset_fingerprint(
            self.model[name]
        )
        assert outcome.fraction == 2 * changed / N
        if changed == LARGE:
            assert outcome.patched == 0

    @precondition(lambda self: self.model)
    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def apply_small_delta(self, data, seed: int) -> None:
        self._apply(data, SMALL, seed)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def apply_large_delta(self, data, seed: int) -> None:
        self._apply(data, LARGE, seed)

    # -- invariants ----------------------------------------------------
    @invariant()
    def counters_balance(self) -> None:
        stats = self.service.stats()
        assert stats.cache_hits + stats.cache_misses == stats.requests
        assert stats.catalog_size == len(self.model)

    @invariant()
    def per_shard_rows_add_up(self) -> None:
        stats = self.service.stats()
        rows = stats.per_shard
        assert len(rows) == self.service.shards
        counters = set(rows[0]) - {"latency_by_algorithm"}
        assert {"requests", "range_requests", "rejected_requests"} <= counters
        for counter in counters:
            total = sum(row[counter] for row in rows)
            assert getattr(stats, counter) == total, counter
        for algorithm, summary in stats.latency_by_algorithm.items():
            counts = [
                row["latency_by_algorithm"].get(algorithm, {}).get("count", 0)
                for row in rows
            ]
            assert summary["count"] == sum(counts), algorithm

    @invariant()
    def no_cached_key_outlives_its_content(self) -> None:
        served = {dataset_fingerprint(d) for d in self.model.values()}
        for key in list(self.service._results._entries):
            assert set(key[:2]) <= served, key[:2]

    @invariant()
    def no_segment_outlives_its_content(self) -> None:
        served = {dataset_fingerprint(d) for d in self.model.values()}
        payloads = self.service._payloads
        assert set(payloads) == served
        refs = sum(payloads[fp].ref is not None for fp in served)
        if self.tier == "single":
            assert refs == 0
        assert self.service._pages.active_segments == refs
        if self.tier == "sharded":
            held = {
                payloads[fp].ref.segment
                for fp in served
                if payloads[fp].ref is not None
            }
            # Nothing is in flight between steps, but a reference cycle
            # may keep an attached dataset until the collector runs.
            if not set(shm._ATTACHED) <= held:
                gc.collect()
            assert set(shm._ATTACHED) <= held


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_service_agrees_with_its_model(tier: str) -> None:
    machine = type(f"{tier.title()}Machine", (ServiceMachine,), {"tier": tier})
    run_state_machine_as_test(machine, settings=SETTINGS)
