"""Dataset catalog: stable names bound to fingerprinted content.

A long-lived service cannot key anything on ``id(dataset)`` — callers
come and go, processes restart, and the same logical dataset arrives
as many different objects.  The catalog gives each dataset a stable
*name* and tracks what that name currently means via a content
fingerprint (:func:`~repro.service.fingerprint.dataset_fingerprint`):

* registering a name twice with equal content is a no-op (same entry,
  same version — the existing object is kept so downstream identity-
  keyed caches, like the workspace index cache, stay hot);
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

from collections.abc import Iterable
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

    The one definition of what every tier accepts at registration.
    """
    if not isinstance(name, str) or not name.strip():
        raise ValueError("dataset name must be a non-empty string")
    if not isinstance(dataset, Dataset):
        raise TypeError(
            f"can only register Dataset objects, got "
            f"{type(dataset).__name__}"
        )


def unknown_name(name: str, known: Iterable[str]) -> KeyError:
    """The ``KeyError`` every tier raises for an unregistered name."""
    listing = ", ".join(sorted(known)) or "<catalog is empty>"
    return KeyError(
        f"no dataset registered under {name!r}; registered: {listing}"
    )


class DatasetCatalog:
    """Name -> :class:`CatalogEntry` mapping with version tracking.

    Not thread-safe by itself; the owning
    :class:`~repro.service.service.SpatialQueryService` serialises
    access.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        #: Fingerprint -> sketch: one set of statistics per distinct
        #: content, shared by every alias bound to it.
        self._sketches: dict[str, DatasetSketch] = {}
        #: Invalidation epoch: bumped by every mutation that can
        #: *unbind* a fingerprint (a rebind to changed content, an
        #: unregister).  Work that resolved a name, ran outside the
        #: service lock, and wants to fill a cache afterwards compares
        #: epochs: unchanged means no invalidation could have raced
        #: it, changed means the fill must re-validate its
        #: fingerprints against ``names_bound_to`` first.
        self._generation = 0

    @property
    def generation(self) -> int:
        """Current invalidation epoch (see ``__init__``)."""
        return self._generation

    def register(
        self,
        name: str,
        dataset: Dataset,
        *,
        sketch: DatasetSketch | None = None,
    ) -> CatalogEntry:
        """Bind ``name`` to ``dataset``; returns the current entry.

        Equal content (same fingerprint) keeps the existing entry —
        including the originally registered object, so identity-keyed
        index caches remain valid.  Changed content replaces the entry
        with a bumped version.  New content gets its statistics sketch
        built here, once — unless the caller supplies ``sketch``, the
        delta-maintenance path's statistics
        (:meth:`DatasetSketch.apply_delta`, a rebuild); sketches
        of content no longer served by any name are dropped.
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
            # A rebind to changed content may have unbound the old
            # fingerprint: in-flight fills must re-validate.
            self._generation += 1
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
            raise unknown_name(name, self._entries) from None

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
        self._generation += 1
        self._prune_sketch(entry.fingerprint)
        return entry

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def names_bound_to(self, fingerprint: str) -> tuple[str, ...]:
        """Names currently bound to content with this fingerprint.

        Drives invalidation exactness: results for a fingerprint stay
        cached as long as *some* name still serves that content.
        """
        return tuple(
            sorted(
                name
                for name, entry in self._entries.items()
                if entry.fingerprint == fingerprint
            )
        )

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatasetCatalog(datasets={len(self._entries)})"
