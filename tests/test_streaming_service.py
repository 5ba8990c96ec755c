"""Service-tier streaming: ``apply_delta`` on both front-ends.

Both tiers run one flow (:func:`repro.service.patch.advance_delta`),
so one suite runs against both: every case is parametrised over
``SpatialQueryService`` and ``ShardedQueryService(2, inline=True)``.

The contract under test: after a delta, every join answer the service
hands out — patched cache hit, fresh miss, degraded snapshot — is the
answer a *cold* service registered directly with the post-delta
datasets would compute, byte for byte.  Patching is an optimisation,
never a semantic: the fallback paths (predicate not plain
intersection, fraction over :data:`PATCH_MAX_FRACTION`, unknown partner)
must converge to the same truth through invalidation.
"""

import numpy as np
import pytest

from repro.datagen import DriftingClusterStream, uniform_dataset
from repro.engine.executor import JoinRequest
from repro.service import SpatialQueryService
from repro.service.patch import PATCH_MAX_FRACTION
from repro.service.sharded import ShardedQueryService
from repro.streaming import DatasetDelta


def _streams(n=800, seed_a=11, seed_b=23):
    a = DriftingClusterStream(n, seed=seed_a, name="sa", id_offset=0)
    b = DriftingClusterStream(
        n, seed=seed_b, name="sb", id_offset=5 * 10**8
    )
    return a, b


def _cold_pairs(a, b, algorithm):
    service = SpatialQueryService()
    service.register("sa", a)
    service.register("sb", b)
    response = service.submit(
        JoinRequest(a="sa", b="sb", algorithm=algorithm)
    )
    assert response.report is not None
    return response.report.result.pairs


TIERS = {
    "single": SpatialQueryService,
    "sharded": lambda: ShardedQueryService(2, inline=True),
}


def _close(service):
    if isinstance(service, ShardedQueryService):
        service.close()


@pytest.fixture(params=sorted(TIERS))
def service(request):
    tier = TIERS[request.param]()
    yield tier
    _close(tier)


def _halving_delta(dataset):
    """Delete the upper half of ``dataset`` — far over the threshold."""
    survivors = np.sort(dataset.ids)[: len(dataset.ids) // 2]
    return DatasetDelta(
        delete_ids=np.setdiff1d(dataset.ids, survivors),
        insert_ids=np.asarray([], dtype=np.int64),
        insert_boxes=type(dataset.boxes).empty(dataset.boxes.ndim),
    )


class TestApplyDelta:
    def test_patches_cached_results_byte_identically(self, service):
        sa, sb = _streams()
        # The default churn keeps one tick far under the patch cap.
        assert sa.churn == 0.05
        service.register("sa", sa.base())
        service.register("sb", sb.base())
        for algorithm in ("pbsm", "rtree"):
            service.submit(
                JoinRequest(a="sa", b="sb", algorithm=algorithm)
            )
        outcome = service.apply_delta("sa", sa.tick())
        assert not outcome.noop
        assert outcome.patched == 2
        assert outcome.fallbacks == 0
        # A delta on the other side patches the already-patched entries.
        outcome_b = service.apply_delta("sb", sb.tick())
        assert outcome_b.patched == 2
        for algorithm in ("pbsm", "rtree"):
            hot = service.submit(
                JoinRequest(a="sa", b="sb", algorithm=algorithm)
            )
            assert hot.cached
            assert hot.report.delta_patched
            cold = _cold_pairs(sa.current, sb.current, algorithm)
            assert hot.report.result.pairs.tobytes() == cold.tobytes()
        stats = service.stats()
        assert stats.delta_applies == 2
        assert stats.delta_patches == 4
        assert stats.delta_patch_fallbacks == 0

    def test_the_delta_is_applied_once_however_many_entries_it_patches(
        self, service, monkeypatch
    ):
        sa, sb = _streams(n=300)
        service.register("sa", sa.base())
        service.register("sb", sb.base())
        for algorithm in ("pbsm", "rtree", "transformers", "gipsy"):
            service.submit(JoinRequest(a="sa", b="sb", algorithm=algorithm))
        delta = sa.tick()  # the stream applies it to its own window
        applies = []
        apply = DatasetDelta.apply

        def counting(self, dataset):
            applies.append(dataset.name)
            return apply(self, dataset)

        monkeypatch.setattr(DatasetDelta, "apply", counting)
        outcome = service.apply_delta("sa", delta)
        assert outcome.patched == 4
        # advance_delta materialises the new content; the four patches
        # are handed it instead of re-deriving it.
        assert applies == ["sa"]
        for algorithm in ("pbsm", "gipsy"):
            hot = service.submit(
                JoinRequest(a="sa", b="sb", algorithm=algorithm)
            )
            assert hot.cached and hot.report.delta_patched
            cold = _cold_pairs(sa.current, sb.base(), algorithm)
            assert hot.report.result.pairs.tobytes() == cold.tobytes()

    def test_catalog_advances_to_cold_fingerprint(self, service):
        sa, _ = _streams()
        base = service.register("sa", sa.base())
        assert base.version == 1
        outcome = service.apply_delta("sa", sa.tick())
        cold = SpatialQueryService().register("sa", sa.current)
        assert outcome.entry.fingerprint == cold.fingerprint
        assert outcome.entry.fingerprint != base.fingerprint
        assert outcome.entry.version == 2

    def test_noop_delta_leaves_cache_alone(self, service):
        sa, _ = _streams()
        service.register("sa", sa.base())
        outcome = service.apply_delta(
            "sa", DatasetDelta.empty(ndim=sa.base().boxes.ndim)
        )
        assert outcome.noop
        assert outcome.patched == 0

    def test_within_predicate_falls_back_to_invalidation(self, service):
        sa, sb = _streams(n=400)
        service.register("sa", sa.base())
        service.register("sb", sb.base())
        request = JoinRequest(a="sa", b="sb", algorithm="pbsm", within=2.0)
        service.submit(request)
        outcome = service.apply_delta("sa", sa.tick())
        assert outcome.patched == 0
        assert outcome.fallbacks == 1
        # The recomputed answer still matches a cold service's.
        hot = service.submit(request)
        assert not hot.cached
        cold = SpatialQueryService()
        cold.register("sa", sa.current)
        cold.register("sb", sb.current)
        ref = cold.submit(request)
        assert (
            hot.report.result.pairs.tobytes()
            == ref.report.result.pairs.tobytes()
        )

    def test_large_delta_falls_back(self, service):
        sa, sb = _streams(n=300)
        service.register("sa", sa.base())
        service.register("sb", sb.base())
        service.submit(JoinRequest(a="sa", b="sb", algorithm="pbsm"))
        huge = _halving_delta(sa.current)
        assert huge.fraction(len(sa.current)) > PATCH_MAX_FRACTION
        outcome = service.apply_delta("sa", huge)
        assert outcome.patched == 0
        assert outcome.fallbacks == 1
        # The next submit misses and recomputes the cold answer.
        hot = service.submit(JoinRequest(a="sa", b="sb", algorithm="pbsm"))
        assert not hot.cached
        cold = _cold_pairs(huge.apply(sa.current), sb.current, "pbsm")
        assert hot.report.result.pairs.tobytes() == cold.tobytes()

    @pytest.mark.parametrize(
        "extra, patched", [(0, 1), (1, 0)], ids=["at_cap", "above_cap"]
    )
    def test_patch_cap_is_inclusive(self, service, extra, patched):
        """A delta of exactly ``PATCH_MAX_FRACTION`` still patches; one
        element more falls back to invalidation."""
        sa, sb = _streams(n=400)
        base = sa.base()
        service.register("sa", base)
        service.register("sb", sb.base())
        request = JoinRequest(a="sa", b="sb", algorithm="pbsm")
        service.submit(request)
        k = int(PATCH_MAX_FRACTION * len(base)) + extra
        delta = DatasetDelta.deleting(
            np.sort(base.ids)[:k], ndim=base.boxes.ndim
        )
        assert (delta.fraction(len(base)) == PATCH_MAX_FRACTION) == (
            extra == 0
        )
        outcome = service.apply_delta("sa", delta)
        assert (outcome.patched, outcome.fallbacks) == (patched, 1 - patched)
        hot = service.submit(request)
        assert hot.cached == bool(patched)
        assert hot.report.delta_patched == bool(patched)
        cold = _cold_pairs(delta.apply(base), sb.base(), "pbsm")
        assert hot.report.result.pairs.tobytes() == cold.tobytes()

    def test_ad_hoc_partner_falls_back(self, service):
        # The cached entry's partner side is an unregistered ad-hoc
        # dataset: after the delta its fingerprint resolves to nothing,
        # so the entry cannot be patched.
        sa, _ = _streams(n=300)
        partner = uniform_dataset(
            300, seed=77, name="adhoc", id_offset=7 * 10**8
        )
        service.register("sa", sa.base())
        service.submit(JoinRequest(a="sa", b=partner, algorithm="pbsm"))
        outcome = service.apply_delta("sa", sa.tick())
        assert outcome.patched == 0
        assert outcome.fallbacks == 1

    def test_alias_keeps_serving_the_old_content(self, service):
        sa, sb = _streams(n=400)
        service.register("sa", sa.base())
        service.register("frozen", sa.base())
        service.register("sb", sb.base())
        moving = JoinRequest(a="sa", b="sb", algorithm="pbsm")
        frozen = JoinRequest(a="frozen", b="sb", algorithm="pbsm")
        before = service.submit(moving)
        outcome = service.apply_delta("sa", sa.tick())
        assert outcome.patched == 1
        # The alias still resolves to the pre-delta content, and its
        # cached answer survived the delta untouched...
        still = service.submit(frozen)
        assert still.cached and not still.report.delta_patched
        assert (
            still.report.result.pairs.tobytes()
            == before.report.result.pairs.tobytes()
        )
        # ...while the advanced name serves the patched answer.
        hot = service.submit(moving)
        assert hot.cached and hot.report.delta_patched
        cold = _cold_pairs(sa.current, sb.current, "pbsm")
        assert hot.report.result.pairs.tobytes() == cold.tobytes()

    def test_invalid_delta_leaves_state_untouched(self, service):
        sa, _ = _streams(n=200)
        entry = service.register("sa", sa.base())
        bogus = DatasetDelta.deleting(
            np.asarray([10**15], dtype=np.int64),
            ndim=sa.base().boxes.ndim,
        )
        with pytest.raises(KeyError):
            service.apply_delta("sa", bogus)
        assert service.stats().delta_applies == 0
        # Still bound to the very same content: re-registering it is
        # the equal-content no-op.
        assert service.register("sa", sa.base()) == entry

    def test_unknown_name_raises(self, service):
        with pytest.raises(KeyError):
            service.apply_delta("nope", DatasetDelta.empty())


def test_outcomes_are_equal_across_tiers():
    """One flow, one answer: every ``DeltaOutcome`` field matches."""

    def script(service):
        sa, sb = _streams(n=400)
        service.register("sa", sa.base())
        service.register("sb", sb.base())
        service.submit(JoinRequest(a="sa", b="sb", algorithm="pbsm"))
        service.submit(
            JoinRequest(a="sa", b="sb", algorithm="pbsm", within=2.0)
        )
        outcomes = [
            service.apply_delta("sa", sa.tick()),
            service.apply_delta(
                "sa", DatasetDelta.empty(ndim=sa.base().boxes.ndim)
            ),
            service.apply_delta("sb", _halving_delta(sb.current)),
        ]
        _close(service)
        return [
            (
                o.entry.name,
                o.entry.fingerprint,
                o.entry.version,
                o.fraction,
                o.patched,
                o.fallbacks,
                o.noop,
            )
            for o in outcomes
        ]

    single, sharded = (script(TIERS[tier]()) for tier in ("single", "sharded"))
    assert single == sharded
    assert [row[4:] for row in single] == [
        (1, 1, False),
        (0, 0, True),
        (0, 1, False),
    ]
