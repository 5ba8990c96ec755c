"""Consistent hashing over content fingerprints: the shard ring.

The sharded service partitions its work by *content*, not by name:
every dataset already carries a SHA-256 fingerprint
(:func:`~repro.service.fingerprint.dataset_fingerprint`), and the ring
maps that fingerprint to the shard that owns it, so work over equal
content is counted for one shard whatever name the caller used.  Names
live only in the router, which decides aliasing once.

Joins are keyed by *two* fingerprints, so a pair is routed by the
fingerprint of the ordered pair: every request over the same two
contents (whatever the algorithm or parameters) lands on one shard.
Any shard may therefore be sent a given content; none keeps it past
the command that carried it, so no cross-shard state needs
coordinating when content is retired.

The ring itself is the textbook construction: each shard contributes
:data:`REPLICAS` virtual points on a 64-bit circle (SHA-256 of
``shard:replica``), and a fingerprint is owned by the first point at
or after its own position.  Virtual points keep the ownership split
close to uniform (the fingerprints are themselves SHA-256 digests, so
key positions are uniform by construction), and growing the ring by a
shard moves only ``~1/(n+1)`` of the key space.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "pair_routing_key"]

#: Virtual points per shard.  More points flatten the ownership
#: distribution at the cost of a larger (static) ring; 64 keeps the
#: per-shard share within a few percent of uniform for any realistic
#: shard count.
REPLICAS = 64


def _position(hex_digest: str) -> int:
    """A fingerprint's position on the 64-bit ring.

    Fingerprints are SHA-256 hex digests, so their leading 16 hex
    characters are already uniformly distributed — no re-hashing
    needed on the (hot) lookup path.
    """
    return int(hex_digest[:16], 16)


def pair_routing_key(fingerprint_a: str, fingerprint_b: str) -> str:
    """The synthetic fingerprint that routes a join over two contents.

    Digesting the ordered pair (request sides are not commutative:
    ``a join b`` and ``b join a`` produce differently-oriented pair
    lists and distinct cache keys, so there is nothing to gain from
    canonicalising the order here) gives every request over the same
    ordered pair of contents one owner, keeping
    each cached pair's whole neighbourhood — all algorithms, all
    parameter variants — invalidatable on a single shard.
    """
    payload = f"{fingerprint_a}|{fingerprint_b}".encode("ascii")
    return hashlib.sha256(payload).hexdigest()


class HashRing:
    """Consistent mapping from hex fingerprints to shard indexes.

    Parameters
    ----------
    shards:
        Number of shards (``>= 1``).
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(REPLICAS):
                digest = hashlib.sha256(
                    f"repro.shard:{shard}:{replica}".encode("ascii")
                ).hexdigest()
                points.append((_position(digest), shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [shard for _, shard in points]

    def owner(self, fingerprint: str) -> int:
        """The shard owning this content fingerprint."""
        index = bisect.bisect_right(
            self._positions, _position(fingerprint)
        )
        return self._owners[index % len(self._owners)]

    def owner_of_pair(
        self, fingerprint_a: str, fingerprint_b: str
    ) -> int:
        """The shard owning the join neighbourhood of an ordered pair."""
        return self.owner(pair_routing_key(fingerprint_a, fingerprint_b))

    def distribution(self, fingerprints: list[str]) -> list[int]:
        """Per-shard key counts for a sample (diagnostics/tests)."""
        counts = [0] * self.shards
        for fingerprint in fingerprints:
            counts[self.owner(fingerprint)] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(shards={self.shards})"
