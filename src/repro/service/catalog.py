"""Dataset catalog: stable names bound to fingerprinted content.

A long-lived service cannot key anything on ``id(dataset)`` — callers
come and go, processes restart, and the same logical dataset arrives
as many different objects.  The catalog gives each dataset a stable
*name* and tracks what that name currently means via a content
fingerprint (:func:`~repro.service.fingerprint.dataset_fingerprint`):

* registering a name twice with equal content is a no-op (same entry,
  same version, the originally registered object kept);
* registering a name with *changed* content bumps the entry's version,
  which is the signal the service uses to invalidate exactly the
  results computed from the old content;
* each distinct fingerprint also gets a
  :class:`~repro.stats.DatasetSketch` built once at registration and
  stored *under the fingerprint* — the service plans joins over
  registered names from these few-KB statistics without touching the
  raw data again, and aliases (two names, same content) share one
  sketch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.joins.base import Dataset
from repro.service.fingerprint import dataset_fingerprint
from repro.stats.sketch import DatasetSketch, build_sketch


@dataclass(frozen=True)
class CatalogEntry:
    """One name binding: the dataset, its fingerprint, its version."""

    name: str
    dataset: Dataset
    fingerprint: str
    #: Starts at 1; bumped every time the name is re-bound to content
    #: with a different fingerprint.
    version: int


def check_binding(name: object, dataset: object) -> None:
    """Raise unless ``name`` / ``dataset`` can form a catalog binding.

    The one definition of what the service accepts at registration.
    """
    if not isinstance(name, str) or not name.strip():
        raise ValueError("dataset name must be a non-empty string")
    if not isinstance(dataset, Dataset):
        raise TypeError(
            f"can only register Dataset objects, got "
            f"{type(dataset).__name__}"
        )


class DatasetCatalog:
    """Name -> :class:`CatalogEntry` mapping with version tracking.

    Not thread-safe by itself: the router that owns it (the one
    behind :class:`~repro.service.SpatialQueryService` and
    :class:`~repro.service.ShardedQueryService`) serialises access.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        #: Fingerprint -> sketch: one set of statistics per distinct
        #: content, shared by every alias bound to it.
        self._sketches: dict[str, DatasetSketch] = {}

    def register(
        self,
        name: str,
        dataset: Dataset,
        *,
        sketch: DatasetSketch | None = None,
    ) -> CatalogEntry:
        """Bind ``name`` to ``dataset``; returns the current entry.

        Equal content (same fingerprint) keeps the existing entry,
        including the originally registered object.  Changed content
        replaces the entry with a bumped version.  New content gets its
        statistics sketch built here, once — unless the caller supplies
        ``sketch`` (the router builds it outside its lock, or advances
        the old one by :meth:`DatasetSketch.apply_delta`); sketches of
        content no longer served by any name are dropped.
        """
        check_binding(name, dataset)
        fingerprint = dataset_fingerprint(dataset)
        old = self._entries.get(name)
        if old is not None and old.fingerprint == fingerprint:
            return old
        entry = CatalogEntry(
            name=name,
            dataset=dataset,
            fingerprint=fingerprint,
            version=1 if old is None else old.version + 1,
        )
        self._entries[name] = entry
        if fingerprint not in self._sketches:
            self._sketches[fingerprint] = (
                sketch if sketch is not None else build_sketch(dataset)
            )
        if old is not None:
            self._prune_sketch(old.fingerprint)
        return entry

    def sketch_for(self, name: str) -> DatasetSketch:
        """The stored sketch of the content currently bound to ``name``."""
        return self._sketches[self.resolve(name).fingerprint]

    def sketch_by_fingerprint(
        self, fingerprint: str
    ) -> DatasetSketch | None:
        """The sketch stored under a content fingerprint, if any."""
        return self._sketches.get(fingerprint)

    def _prune_sketch(self, fingerprint: str) -> None:
        """Drop a fingerprint's sketch once no name serves it."""
        if not self.names_bound_to(fingerprint):
            self._sketches.pop(fingerprint, None)

    def resolve(self, name: str) -> CatalogEntry:
        """The entry bound to ``name``; raises ``KeyError`` otherwise."""
        try:
            return self._entries[name]
        except KeyError:
            listing = ", ".join(sorted(self._entries))
            raise KeyError(
                f"no dataset registered under {name!r}; registered: "
                f"{listing or '<catalog is empty>'}"
            ) from None

    def get(self, name: str) -> CatalogEntry | None:
        """The entry bound to ``name``, or ``None``."""
        return self._entries.get(name)

    def unregister(self, name: str) -> CatalogEntry:
        """Remove and return the entry bound to ``name``.

        The content's sketch is dropped with it unless another name
        still serves the same fingerprint.
        """
        entry = self.resolve(name)
        del self._entries[name]
        self._prune_sketch(entry.fingerprint)
        return entry

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def names_bound_to(self, fingerprint: str) -> tuple[str, ...]:
        """Names currently bound to content with this fingerprint.

        Drives invalidation exactness: results for a fingerprint stay
        cached as long as *some* name still serves that content.  It is
        also the one stale-fill guard: work that resolved a name, ran
        outside the router's lock, and wants to fill a cache afterwards
        fills only while every fingerprint it resolved is still bound.
        """
        return tuple(
            sorted(
                name
                for name, entry in self._entries.items()
                if entry.fingerprint == fingerprint
            )
        )

    def served(self) -> dict[str, Dataset]:
        """Fingerprint -> a dataset bound to it, for every served content."""
        return {
            entry.fingerprint: entry.dataset
            for entry in self._entries.values()
        }

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatasetCatalog(datasets={len(self._entries)})"
