"""Stable content fingerprints for datasets and request cache keys.

The catalog and the result cache identify datasets by *content*, not by
object identity or registration name: a dataset's
:attr:`~repro.joins.base.Dataset.fingerprint` is a SHA-256 over the
canonical bytes of the element ids and box bounds (little-endian
int64 / IEEE-754 float64, C-contiguous row-major), prefixed with the
cardinality and dimensionality so structurally different datasets can
never collide byte-wise.  It is hashed once per object and kept on it.
That makes fingerprints

* stable across processes (no interpreter hash salting is involved),
* stable across pickle round-trips and reconstruction paths (the bytes
  are canonicalised before hashing), and
* sensitive to any element perturbation — changing one id or one
  coordinate changes the digest.

Request cache keys build on the same idea: two
:class:`~repro.engine.executor.JoinRequest` submissions hit the same
cache slot exactly when their inputs have equal content *and* their
algorithm/space/parameter configuration canonicalises identically.
"""

from __future__ import annotations

from repro.engine.workspace import algorithm_signature
from repro.geometry.box import Box
from repro.joins.base import Dataset, SpatialJoinAlgorithm

#: Shape of a result-cache key: both fingerprints, then the
#: canonicalised algorithm/space/parameter signatures.
CacheKey = tuple[object, ...]


def dataset_fingerprint(dataset: Dataset) -> str:
    """The dataset's :attr:`~repro.joins.base.Dataset.fingerprint`:
    hex SHA-256 of its canonical content bytes, hashed once per object.

    The dataset *name* is deliberately excluded: two datasets with
    equal elements are the same data wherever they came from, which is
    what lets the service serve a re-registered-but-unchanged dataset
    from cache without invalidation.

    >>> import numpy as np
    >>> from repro.geometry.boxes import BoxArray
    >>> from repro.joins.base import Dataset
    >>> ba = BoxArray(np.zeros((1, 3)), np.ones((1, 3)))
    >>> d1 = Dataset("a", np.array([7]), ba)
    >>> d2 = Dataset("b", np.array([7]), ba)
    >>> dataset_fingerprint(d1) == dataset_fingerprint(d2)
    True
    """
    if not isinstance(dataset, Dataset):
        raise TypeError(
            f"dataset_fingerprint takes a Dataset, got {type(dataset).__name__}"
        )
    return dataset.fingerprint


def _space_signature(space: object) -> object:
    """Canonical, hashable form of a planner ``space`` input."""
    if space is None:
        return None
    if isinstance(space, Box):
        return (tuple(map(float, space.lo)), tuple(map(float, space.hi)))
    raise TypeError(
        f"space must be a Box or None, got {type(space).__name__}"
    )


def _parameters_signature(parameters: dict[str, object] | None) -> object:
    """Canonical, hashable form of planner parameter overrides."""
    if not parameters:
        return None
    return tuple(
        (str(key), repr(parameters[key])) for key in sorted(parameters)
    )


def _within_signature(within: float | None) -> float | None:
    """Canonical form of the distance predicate.

    ``within=0.0`` *is* the intersection join (enlarging boxes by zero
    changes nothing), so it canonicalises to ``None`` — a distance-0
    submission and a plain intersection submission share a cache slot.
    """
    if within is None:
        return None
    value = float(within)
    if value < 0:
        raise ValueError("within must be non-negative")
    return None if value == 0.0 else value


def request_cache_key(
    fingerprint_a: str,
    fingerprint_b: str,
    algorithm: str | SpatialJoinAlgorithm,
    space: object = None,
    parameters: dict[str, object] | None = None,
    within: float | None = None,
) -> CacheKey:
    """The result-cache key of one join request.

    ``(fingerprint_a, fingerprint_b, algorithm, space, params,
    within)`` — content fingerprints of both sides plus the
    canonicalised algorithm choice (a registry name, including
    ``"auto"``, or a configured instance's
    :func:`~repro.engine.workspace.algorithm_signature`), planner
    inputs, and the distance predicate (``None`` for plain
    intersection; ``0.0`` canonicalises to ``None`` because enlarging
    by zero is the identity).  ``"auto"`` keys on the *request*: the
    planner's resolution is a deterministic function of the inputs, so
    equal keys imply equal resolved plans.
    """
    algo_sig = (
        algorithm.strip().lower()
        if isinstance(algorithm, str)
        else algorithm_signature(algorithm)
    )
    return (
        fingerprint_a,
        fingerprint_b,
        algo_sig,
        _space_signature(space),
        _parameters_signature(parameters),
        _within_signature(within),
    )
