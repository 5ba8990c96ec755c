"""Simulated disk substrate.

The paper evaluates *disk-based* spatial joins on a machine with 10kRPM
SAS disks and cold caches; the decisive performance effects (PBSM's
random reads, TRANSFORMERS' selective retrieval) are about *which pages
get read and in what order*.  This subpackage provides a deterministic
stand-in for that hardware:

* :class:`~repro.storage.disk.SimulatedDisk` stores page payloads,
  classifies every read as sequential or random and charges per-page
  costs from a :class:`~repro.storage.disk.DiskModel`;
* :class:`~repro.storage.buffer.BufferPool` adds an LRU cache in front
  of a disk (cleared between experiments, mirroring the paper's cold
  cache protocol);
* :mod:`~repro.storage.records` defines the fixed-size on-page record
  layout that determines how many spatial elements fit on a page;
* :class:`~repro.storage.page.ElementPage` is the payload every join
  algorithm stores per data page: a window onto its run's arrays;
* :mod:`~repro.storage.shm` publishes dataset pages into
  ``multiprocessing.shared_memory`` so batch-executor workers attach
  to the arrays instead of unpickling a private copy each.

See DESIGN.md §2 for why this substitution preserves the paper's
measured shapes.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, DiskStats, SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity
from repro.storage.records import RecordCodec
from repro.storage.shm import (
    SharedDatasetPool,
    SharedDatasetRef,
    attach_dataset,
    content_fingerprint,
)

__all__ = [
    "BufferPool",
    "DiskModel",
    "DiskStats",
    "SimulatedDisk",
    "ElementPage",
    "element_page_capacity",
    "RecordCodec",
    "SharedDatasetPool",
    "SharedDatasetRef",
    "attach_dataset",
    "content_fingerprint",
]
