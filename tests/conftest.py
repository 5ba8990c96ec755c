"""Shared fixtures and helpers for the test suite."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.datagen import (
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.joins.base import Dataset
from repro.joins.brute import brute_force_pairs
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk

#: Page size used across the algorithm tests: small enough that even a
#: few-thousand-element dataset exercises multi-page, multi-node paths.
TEST_PAGE_SIZE = 1024


#: A cost model whose sums are not exact (0.1 + 0.7 + 0.1 != 0.1 + 0.1 +
#: 0.7), so "the same float additions in the same order" is observable.
NON_DYADIC = DiskModel(
    page_size=TEST_PAGE_SIZE, seq_read_cost=0.1, random_read_cost=0.7, write_cost=0.3
)


def make_disk() -> SimulatedDisk:
    """A fresh simulated disk with the test page size."""
    return SimulatedDisk(DiskModel(page_size=TEST_PAGE_SIZE))


def run_join(algorithm, disk, a, b):
    """Index both datasets on ``disk`` and join them, workspace-free.

    Returns ``(join_result, build_stats_a, build_stats_b)``.
    """
    index_a, build_a = algorithm.build_index(disk, a)
    index_b, build_b = algorithm.build_index(disk, b)
    return algorithm.join(index_a, index_b), build_a, build_b


def live_pages(disk: SimulatedDisk) -> int:
    """Pages of ``disk`` whose payload has not been released."""
    live = 0
    for page_id in range(disk.num_pages):
        try:
            disk.peek(page_id)
        except KeyError:
            continue
        live += 1
    return live


@contextmanager
def counted_constructions(monkeypatch, *classes):
    """Count ``__init__`` calls per class for the length of the block
    (interpreter-work guards: counted, not timed)."""
    calls = dict.fromkeys(classes, 0)
    with monkeypatch.context() as patch:
        for cls in classes:
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                calls[_cls] += 1
                _init(self, *args, **kwargs)

            patch.setattr(cls, "__init__", counting)
        yield calls


def dataset_pair(
    kind: str, na: int, nb: int, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Build one of the paper's dataset-pair archetypes, scaled."""
    space = scaled_space(na + nb)
    a_gen = {
        "uniform": uniform_dataset,
        "dense": dense_cluster,
        "massive": massive_cluster,
        "uclust": uniform_cluster,
    }
    gen_a, gen_b = {
        "uniform": ("uniform", "uniform"),
        "contrast": ("uniform", "dense"),
        "clustered": ("dense", "uclust"),
        "massive": ("massive", "uniform"),
    }[kind]
    a = a_gen[gen_a](na, seed=seed * 2 + 1, name="A", space=space)
    b = a_gen[gen_b](
        nb, seed=seed * 2 + 2, name="B", id_offset=10**9, space=space
    )
    return a, b


def oracle_pairs(a: Dataset, b: Dataset) -> set[tuple[int, int]]:
    """The exact filter-step answer, as a set of id pairs."""
    return {tuple(p) for p in brute_force_pairs(a, b)}


@pytest.fixture
def disk() -> SimulatedDisk:
    return make_disk()


@pytest.fixture
def page_reads(monkeypatch) -> list[tuple[int, int]]:
    """Every buffer-pool read the test makes, in order, as ``(pool, page
    id)`` — pools numbered by first read.  ``BufferPool.read_many`` is
    the loop of ``read`` calls, so its reads are seen id by id too."""
    reads: list[tuple[int, int]] = []
    pools: dict[int, int] = {}
    read = BufferPool.read

    def spy(pool, page_id):
        reads.append((pools.setdefault(id(pool), len(pools)), int(page_id)))
        return read(pool, page_id)

    monkeypatch.setattr(BufferPool, "read", spy)
    return reads
