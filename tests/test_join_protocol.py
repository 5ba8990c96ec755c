"""The measurement protocol every registered algorithm runs under.

:class:`~repro.joins.base.SpatialJoinAlgorithm` owns it: each phase's
stats are the disk's own counter delta across the call, a join's pairs
are canonical and equal the oracle's, and a join refuses indexes that
live on two disks.  One parametrised suite checks it for every name in
the registry.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import available_algorithms, plan_join
from repro.joins.base import canonical_pairs
from repro.joins.brute import brute_force_pairs
from repro.storage.disk import SimulatedDisk

from tests.conftest import NON_DYADIC, dataset_pair

#: The fields a phase's stats take from the disk, and the disk's name
#: for each.
IO_FIELDS = {
    "pages_read": "pages_read",
    "seq_reads": "seq_reads",
    "random_reads": "random_reads",
    "pages_written": "pages_written",
    "io_cost": "total_cost",
}

#: BRUTE's handles are its datasets, which live on no disk.
ON_DISK = tuple(name for name in available_algorithms() if name != "brute")


def io_of(stats):
    return {name: getattr(stats, name) for name in IO_FIELDS}


def delta_of(disk, before):
    delta = disk.stats.delta(before)
    return {name: getattr(delta, field) for name, field in IO_FIELDS.items()}


def algorithm(name, a, b):
    return plan_join(a, b, name).create()


@pytest.mark.parametrize("name", available_algorithms())
@pytest.mark.parametrize("kind", ["uniform", "contrast"])
def test_each_phase_is_charged_its_own_disk_delta(name, kind):
    a, b = dataset_pair(kind, 300, 500, seed=61)
    algo, disk = algorithm(name, a, b), SimulatedDisk(NON_DYADIC)
    handles = []
    for dataset in (a, b):
        before = disk.stats.snapshot()
        handle, build = algo.build_index(disk, dataset)
        assert (build.algorithm, build.phase) == (algo.name, "index")
        assert io_of(build) == delta_of(disk, before)
        handles.append(handle)

    before = disk.stats.snapshot()
    result = algo.join(*handles)
    stats = result.stats
    assert (stats.algorithm, stats.phase) == (algo.name, "join")
    assert io_of(stats) == delta_of(disk, before)
    assert stats.wall_seconds > 0

    pairs = result.pairs
    assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
    assert pairs.tobytes() == canonical_pairs(pairs).tobytes()
    assert pairs.tobytes() == brute_force_pairs(a, b).tobytes()
    assert stats.pairs_found == len(pairs) > 0


@pytest.mark.parametrize("name", ON_DISK)
def test_indexes_on_two_disks_are_refused(name):
    a, b = dataset_pair("uniform", 200, 200, seed=62)
    algo = algorithm(name, a, b)
    index_a, _ = algo.build_index(SimulatedDisk(NON_DYADIC), a)
    disk_b = SimulatedDisk(NON_DYADIC)
    index_b, _ = algo.build_index(disk_b, b)
    before = dataclasses.astuple(disk_b.stats)
    with pytest.raises(ValueError, match="same disk"):
        algo.join(index_a, index_b)
    # Refused before anything was read.
    assert dataclasses.astuple(disk_b.stats) == before
