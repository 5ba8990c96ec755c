"""Tests for range queries over the TRANSFORMERS index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransformersJoin, range_query
from repro.geometry.box import Box
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool

from tests.conftest import dataset_pair, make_disk


@pytest.fixture(scope="module")
def indexed():
    data, _ = dataset_pair("clustered", 2000, 10, seed=55)
    disk = make_disk()
    index, _ = TransformersJoin().build_index(disk, data)
    return data, disk, index


def brute(data, query):
    mask = data.boxes.intersects_box(query)
    return np.sort(data.ids[mask])


class TestRangeQuery:
    def test_matches_brute_force(self, indexed):
        data, disk, index = indexed
        rng = np.random.default_rng(3)
        space = data.boxes.mbb()
        pool = BufferPool(disk, 512)
        for _ in range(12):
            center = rng.uniform(space.lo, space.hi)
            half = rng.uniform(0.5, 4.0, size=3)
            query = Box(tuple(center - half), tuple(center + half))
            got = range_query(index, query, pool)
            assert np.array_equal(got, brute(data, query))

    def test_full_space_returns_everything(self, indexed):
        data, disk, index = indexed
        pool = BufferPool(disk, 512)
        got = range_query(index, data.boxes.mbb(), pool)
        assert np.array_equal(got, np.sort(data.ids))

    def test_empty_region(self, indexed):
        data, disk, index = indexed
        space = data.boxes.mbb()
        far = Box(
            tuple(np.asarray(space.hi) + 50),
            tuple(np.asarray(space.hi) + 51),
        )
        pool = BufferPool(disk, 512)
        assert range_query(index, far, pool).size == 0

    def test_charges_io_and_counts_work(self, indexed):
        data, disk, index = indexed
        disk.reset_stats()
        pool = BufferPool(disk, 512)
        stats = JoinStats()
        space = data.boxes.mbb()
        center = (np.asarray(space.lo) + np.asarray(space.hi)) / 2
        query = Box(tuple(center - 2), tuple(center + 2))
        range_query(index, query, pool, stats)
        assert disk.stats.pages_read > 0
        assert stats.metadata_comparisons > 0

    def test_selective_query_reads_less_than_scan(self, indexed):
        """The selling point: a small query must not touch most pages."""
        data, disk, index = indexed
        space = data.boxes.mbb()
        center = (np.asarray(space.lo) + np.asarray(space.hi)) / 2
        query = Box(tuple(center - 1), tuple(center + 1))
        disk.reset_stats()
        range_query(index, query, BufferPool(disk, 512))
        assert disk.stats.pages_read < index.num_units / 2

    def test_rejects_dim_mismatch(self, indexed):
        _, disk, index = indexed
        with pytest.raises(ValueError):
            range_query(index, Box((0, 0), (1, 1)), BufferPool(disk, 64))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_random_queries(self, indexed, seed):
        data, disk, index = indexed
        rng = np.random.default_rng(seed)
        space = data.boxes.mbb()
        center = rng.uniform(space.lo, space.hi)
        half = rng.uniform(0.1, 6.0, size=3)
        query = Box(tuple(center - half), tuple(center + half))
        got = range_query(index, query, BufferPool(disk, 512))
        assert np.array_equal(got, brute(data, query))
