"""End-to-end tests for the TRANSFORMERS adaptive join."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransformersConfig, TransformersJoin
from repro.core import join as core_join
from repro.core.join import _Driver
from repro.core import walk as core_walk
from repro.core.query import range_query
from repro.datagen import scaled_space, uniform_dataset
from repro.joins import grid_hash
from repro.joins.base import Dataset, JoinStats
from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.storage.buffer import BufferPool

from tests import test_core_counters_golden as golden
from tests.conftest import dataset_pair, make_disk, oracle_pairs, run_join


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "contrast", "clustered", "massive"])
    def test_matches_oracle(self, kind):
        a, b = dataset_pair(kind, 1000, 1400, seed=71)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    @pytest.mark.parametrize(
        "config",
        [
            TransformersConfig.no_transformations(),
            TransformersConfig.overfit(),
            TransformersConfig.underfit(),
        ],
        ids=["no-tr", "overfit", "underfit"],
    )
    def test_all_ablation_configs_correct(self, config):
        """Transformations are a performance feature; every configuration
        must return the exact same (correct) result set."""
        a, b = dataset_pair("massive", 900, 1300, seed=72)
        result, _, _ = run_join(TransformersJoin(config), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)

    def test_extreme_density_ratios(self):
        for na, nb in [(40, 4000), (4000, 40)]:
            a, b = dataset_pair("uniform", na, nb, seed=73)
            result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
            assert result.pair_set() == oracle_pairs(a, b)

    def test_pair_orientation_is_a_then_b(self):
        """Result pairs must be (id from A, id from B) regardless of any
        role switches during the join."""
        a, b = dataset_pair("contrast", 300, 2400, seed=74)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        if len(result.pairs) == 0:
            pytest.skip("no pairs for this seed")
        a_ids = set(a.ids.tolist())
        b_ids = set(b.ids.tolist())
        assert all(int(x) in a_ids for x in result.pairs[:, 0])
        assert all(int(y) in b_ids for y in result.pairs[:, 1])

    def test_no_duplicate_pairs(self):
        a, b = dataset_pair("clustered", 1500, 1500, seed=75)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        pairs = [tuple(p) for p in result.pairs]
        assert len(pairs) == len(set(pairs))

    def test_disjoint_datasets_give_empty_result(self):
        space = scaled_space(600)
        a = uniform_dataset(300, seed=1, name="A", space=space)
        shift = np.asarray(space.hi) * 10
        b = Dataset(
            "B",
            np.arange(10**9, 10**9 + 300),
            BoxArray(a.boxes.lo + shift, a.boxes.hi + shift),
        )
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.stats.pairs_found == 0

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_random_seeds(self, seed):
        a, b = dataset_pair("uniform", 600, 900, seed=seed)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.pair_set() == oracle_pairs(a, b)


class TestIndexReuse:
    def test_same_index_joins_multiple_partners(self):
        """Section VII-C1: a TRANSFORMERS index is per-dataset and can be
        reused across joins — unlike PBSM's pair-specific partitions."""
        space = scaled_space(3000)
        a = uniform_dataset(1000, seed=1, name="A", space=space)
        b = uniform_dataset(1000, seed=2, name="B", id_offset=10**9, space=space)
        c = uniform_dataset(1000, seed=3, name="C", id_offset=2 * 10**9, space=space)
        disk = make_disk()
        algo = TransformersJoin()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        ic, _ = algo.build_index(disk, c)
        r_ab = algo.join(ia, ib)
        r_ac = algo.join(ia, ic)
        assert r_ab.pair_set() == oracle_pairs(a, b)
        assert r_ac.pair_set() == oracle_pairs(a, c)

    def test_join_is_repeatable(self):
        a, b = dataset_pair("uniform", 800, 800, seed=77)
        disk = make_disk()
        algo = TransformersJoin()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        first = algo.join(ia, ib).pair_set()
        second = algo.join(ia, ib).pair_set()
        assert first == second

    def test_rejects_indexes_on_different_disks(self):
        a, b = dataset_pair("uniform", 200, 200)
        algo = TransformersJoin()
        ia, _ = algo.build_index(make_disk(), a)
        ib, _ = algo.build_index(make_disk(), b)
        with pytest.raises(ValueError, match="same disk"):
            algo.join(ia, ib)


class TestAdaptiveBehaviour:
    def test_transformations_fire_on_skew(self):
        a, b = dataset_pair("contrast", 300, 3000, seed=78)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        extras = result.stats.extras
        total = (
            extras["role_switches"]
            + extras["splits_to_unit"]
            + extras["splits_to_element"]
        )
        assert total > 0

    def test_no_tr_config_never_transforms(self):
        a, b = dataset_pair("contrast", 300, 3000, seed=78)
        cfg = TransformersConfig.no_transformations()
        result, _, _ = run_join(TransformersJoin(cfg), make_disk(), a, b)
        extras = result.stats.extras
        assert extras["role_switches"] == 0
        assert extras["splits_to_unit"] == 0
        assert extras["splits_to_element"] == 0

    def test_underfit_never_splits(self):
        a, b = dataset_pair("massive", 1000, 1000, seed=79)
        cfg = TransformersConfig.underfit()
        result, _, _ = run_join(TransformersJoin(cfg), make_disk(), a, b)
        assert result.stats.extras["splits_to_unit"] == 0

    def test_overfit_transforms_more_than_cost_model(self):
        a, b = dataset_pair("massive", 2000, 2000, seed=80)
        r_over, _, _ = run_join(
            TransformersJoin(TransformersConfig.overfit()), make_disk(), a, b
        )
        r_model, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        over = r_over.stats.extras
        model = r_model.stats.extras
        assert (
            over["splits_to_unit"] + over["role_switches"]
            >= model["splits_to_unit"] + model["role_switches"]
        )

    def test_exploration_overhead_reported(self):
        a, b = dataset_pair("massive", 1500, 1500, seed=81)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        extras = result.stats.extras
        assert extras["exploration_cost"] > 0
        assert extras["join_cost"] > 0
        # Figure 14's claim: overhead is a minor share of join time.
        share = extras["exploration_cost"] / (
            extras["exploration_cost"] + extras["join_cost"]
        )
        assert share < 0.6

    def test_thresholds_reported(self):
        a, b = dataset_pair("uniform", 600, 600, seed=82)
        result, _, _ = run_join(TransformersJoin(), make_disk(), a, b)
        assert result.stats.extras["t_su_final"] > 0
        assert result.stats.extras["t_so_final"] > 0


class TestStatsAccounting:
    def test_io_phases_separated(self):
        """Index-phase I/O must not leak into join-phase stats."""
        a, b = dataset_pair("uniform", 800, 800, seed=83)
        disk = make_disk()
        algo = TransformersJoin()
        ia, build_a = algo.build_index(disk, a)
        ib, build_b = algo.build_index(disk, b)
        writes_during_build = build_a.pages_written + build_b.pages_written
        assert writes_during_build > 0
        disk.reset_stats()
        result = algo.join(ia, ib)
        assert result.stats.pages_written == 0
        assert result.stats.pages_read > 0

    def test_cost_attribution_sums_to_total_io(self):
        a, b = dataset_pair("clustered", 1000, 1000, seed=84)
        disk = make_disk()
        algo = TransformersJoin()
        ia, _ = algo.build_index(disk, a)
        ib, _ = algo.build_index(disk, b)
        disk.reset_stats()
        result = algo.join(ia, ib)
        js = result.stats
        attributed = js.extras["exploration_io_cost"] + js.extras["data_io_cost"]
        assert attributed == pytest.approx(js.io_cost, rel=1e-9)


class TestDriverInternals:
    @staticmethod
    def driver(a, b):
        algo, disk = TransformersJoin(), make_disk()
        index_a, _ = algo.build_index(disk, a)
        index_b, _ = algo.build_index(disk, b)
        return _Driver(algo.config, index_a, index_b, algo.name)

    def test_lost_todo_list_fails_without_probing_past_the_last_node(self):
        """Empty the to-do list behind the driver's back: the scan must
        stop at the last node, not one slot beyond it."""

        class ProbedSet(set):
            probes: list[int] = []

            def __contains__(self, node):
                self.probes.append(node)
                return super().__contains__(node)

        driver = self.driver(*dataset_pair("uniform", 600, 600, seed=75))
        num_nodes = driver.indexes[0].num_nodes
        assert num_nodes > 1
        driver.unchecked[0] = ProbedSet()
        with pytest.raises(RuntimeError, match="to-do list"):
            driver._next_pivot(0)
        assert ProbedSet.probes == list(range(num_nodes))
        assert driver.scan_pos[0] <= num_nodes

    def test_node_batch_filter_cost_does_not_grow_with_the_guide_units(
        self, monkeypatch
    ):
        """The g-unit x f-unit cross filter is one reduction however
        many units the pivot node has.  Counted, not timed; the
        in-memory join kernel is stubbed out (it is not the filter)."""
        space = scaled_space(2_000)
        b = uniform_dataset(1_500, seed=2, name="B", id_offset=10**9, space=space)
        counts = {}
        for n in (30, 200):
            a = uniform_dataset(n, seed=1, name="A", space=space)
            driver = self.driver(a, b)
            assert driver.indexes[0].num_nodes == 1
            g_units = len(driver.indexes[0].nodes.units[0])
            driver._join_pages = lambda g_pages, f_pages: None
            calls = []
            with monkeypatch.context() as patch:
                real = np.all
                patch.setattr(
                    np, "all", lambda *a, **k: calls.append(1) or real(*a, **k)
                )
                driver._process_node_batch(
                    0, list(range(driver.indexes[1].num_nodes))
                )
            assert driver.data_pages > 0  # the filter let pages through
            counts[g_units] = len(calls)
        few, many = sorted(counts)
        assert many >= 4 * few
        assert counts[many] == counts[few] <= 3

    def test_exploration_tables_are_computed_once_per_direction(
        self, monkeypatch
    ):
        """Counted, not timed: the crawl's masks and the walk's distances
        are computed at most once per direction of an n = 1 500 join
        (with a role switch, so both directions run), and the walk looks
        its row up with no NumPy call per tested neighbour."""
        driver = self.driver(*dataset_pair("massive", 1500, 1500, seed=81))
        masks, distances, in_walk = [], [], []
        real_masks = core_join.crawl_masks
        real_distances = core_join.partition_distances
        real_walk = core_join.adaptive_walk

        class CountingNumpy:
            """``np`` as the walk module sees it, counting lookups."""

            lookups = 0

            def __getattr__(self, name):
                CountingNumpy.lookups += 1
                return getattr(np, name)

        def spy_walk(index, start, distance, stats, pool):
            assert type(distance) is list
            before = CountingNumpy.lookups, stats.metadata_comparisons
            found = real_walk(index, start, distance, stats, pool)
            in_walk.append(
                (
                    CountingNumpy.lookups - before[0],
                    stats.metadata_comparisons - before[1],
                )
            )
            return found

        monkeypatch.setattr(core_walk, "np", CountingNumpy())
        monkeypatch.setattr(
            core_join,
            "crawl_masks",
            lambda *args: masks.append(driver.guide) or real_masks(*args),
        )
        monkeypatch.setattr(
            core_join,
            "partition_distances",
            lambda *args: distances.append(driver.guide) or real_distances(*args),
        )
        monkeypatch.setattr(core_join, "adaptive_walk", spy_walk)
        result = driver.run()
        assert result.stats.extras["role_switches"] > 0
        assert sorted(masks) == sorted(distances) == [0, 1]
        # Some walks leave their start, so neighbours were tested.
        assert sum(tested for _, tested in in_walk) > len(in_walk)
        assert all(lookups == 0 for lookups, _ in in_walk)


class TestComparisonQueue:
    """The in-memory comparisons are queued and launched in bounded
    batches; nothing the simulated counters see may notice."""

    @staticmethod
    def indexes(case):
        algo, disk = TransformersJoin(), make_disk()
        a, b = golden._pair(case)
        index_a, _ = algo.build_index(disk, a)
        index_b, _ = algo.build_index(disk, b)
        return algo, index_a, index_b

    @pytest.mark.parametrize("case", ["uniform_3d", "massive_3d"])
    @pytest.mark.parametrize("budget", [None, 2_000])
    def test_launches_are_bounded_by_the_row_budget(
        self, monkeypatch, case, budget
    ):
        """Counted, not timed: one launch per pivot was 48 / 30+ here."""
        if budget is None:
            budget = core_join._QUEUE_ROW_BUDGET
        monkeypatch.setattr(core_join, "_QUEUE_ROW_BUDGET", budget)
        launches, single = [], []
        segmented, one = core_join.grid_hash_join_segments, grid_hash.grid_hash_join

        def spy_segments(build, probe, build_offsets, probe_offsets):
            last_group = int(build_offsets[-1] - build_offsets[-2]) + int(
                probe_offsets[-1] - probe_offsets[-2]
            )
            launches.append((len(build) + len(probe), last_group))
            return segmented(build, probe, build_offsets, probe_offsets)

        monkeypatch.setattr(core_join, "grid_hash_join_segments", spy_segments)
        monkeypatch.setattr(
            grid_hash,
            "grid_hash_join",
            lambda *args: single.append(1) or one(*args),
        )
        algo, index_a, index_b = self.indexes(case)
        result = algo.join(index_a, index_b)
        assert result.stats.intersection_tests == (
            golden.GOLDEN[case]["intersection_tests"]
        )
        queued = sum(rows for rows, _ in launches)
        assert queued > 0 and not single
        assert len(launches) <= -(-queued // budget) + 1
        # Never more than the budget plus the group that passed it.
        assert all(rows - last < budget for rows, last in launches)

    @pytest.mark.parametrize("case", golden.CASES)
    def test_counters_are_python_ints_after_several_flushes(
        self, monkeypatch, case
    ):
        monkeypatch.setattr(core_join, "_QUEUE_ROW_BUDGET", 1_500)
        flushes = []
        flush = _Driver._flush_queue
        monkeypatch.setattr(
            _Driver,
            "_flush_queue",
            lambda self: flushes.append(len(self.queue)) or flush(self),
        )
        algo, index_a, index_b = self.indexes(case)
        result = algo.join(index_a, index_b)
        assert sum(1 for groups in flushes if groups) > 1
        stats = result.stats
        assert type(stats.intersection_tests) is int
        assert type(stats.pairs_found) is int
        json.dumps(stats.as_dict())
        # Where the queue is cut changes nothing that is reported.
        expected = golden.GOLDEN[case]
        assert stats.intersection_tests == expected["intersection_tests"]
        assert (
            hashlib.sha256(result.pairs.tobytes()).hexdigest()
            == expected["pairs_sha256"]
        )

    #: SHA-256 of the ``(pool, page id)`` sequence of every
    #: ``BufferPool.read`` of one join — pool 0 the metadata pool, pool 1
    #: the data pool — recorded at commit b431049, where each page group
    #: was joined as soon as it was read.
    READ_SEQUENCES = {
        "uniform_3d": (
            870,
            "704b2f9c10fff95731377d4815e2962358b6418ce5f5f9a464fedc48feccbc9e",
        ),
        "massive_3d": (
            762,
            "11b7bced787e8afb729e87e11351033c39be5633eac1ff8427d6e17287a1e55d",
        ),
        "massive_2d": (
            402,
            "59ff88dc6b87dab67929dad40d9f96b49060dac113c7bab5f7ca7fb935077f83",
        ),
    }

    @pytest.mark.parametrize("case", golden.CASES)
    def test_page_read_sequence_is_the_recorded_one(self, page_reads, case):
        algo, index_a, index_b = self.indexes(case)
        algo.join(index_a, index_b)
        digest = hashlib.sha256(json.dumps(page_reads).encode()).hexdigest()
        assert (len(page_reads), digest) == self.READ_SEQUENCES[case]

    #: The same for twelve seeded range queries over the case's left
    #: index through one 32-page pool, with the SHA-256 of the returned
    #: ids, ``intersection_tests`` and the pool's ``(hits, misses)`` —
    #: recorded at commit b38cd33, one ``BufferPool.read`` per page.
    RANGE_READ_SEQUENCES = {
        "uniform_3d": (
            191,
            "5802021d6b8078224698642fb8bc4da68a40f7076159428b4bba3fa8821e8e86",
            "7d955b26bce3e21dda02c1c91b1c27a7ccbbbb83c8bac6715ed6455ade0d6ae9",
            1836,
            (66, 125),
        ),
        "massive_3d": (
            166,
            "938945f77b8682c77df2765478f4767bee87dfd149d41aa2f62d32ae2a1e66e1",
            "c9ec3bfc7be661491fe0aae089f30e5a6ef7c78249905d19acd9d6555effeaf1",
            1264,
            (78, 88),
        ),
        "massive_2d": (
            139,
            "1525fcebb4879bb5d06f7227b669ac3fe4895eab270777aab4c110f5355bd12e",
            "1d8d7146c26ab44e828764a0a593d70982c8b39943038141d71e12b5b59e2675",
            1634,
            (65, 74),
        ),
    }

    @pytest.mark.parametrize("case", golden.CASES)
    def test_range_query_read_sequence_is_the_recorded_one(self, page_reads, case):
        _, index, _ = self.indexes(case)
        lo, hi = np.asarray(index.space.lo), np.asarray(index.space.hi)
        rng = np.random.default_rng(5)
        pool = BufferPool(index.disk, 32)
        stats = JoinStats(algorithm="RANGE-QUERY")
        hits = []
        for _ in range(12):
            centre = rng.uniform(lo, hi)
            half = rng.uniform(0.02, 0.25) * (hi - lo)
            query = Box(tuple(centre - half), tuple(centre + half))
            hits.append(range_query(index, query, pool, stats).tolist())
        assert index.disk.stats.pages_read == pool.misses
        assert (
            len(page_reads),
            hashlib.sha256(json.dumps(page_reads).encode()).hexdigest(),
            hashlib.sha256(json.dumps(hits).encode()).hexdigest(),
            stats.intersection_tests,
            (pool.hits, pool.misses),
        ) == self.RANGE_READ_SEQUENCES[case]
