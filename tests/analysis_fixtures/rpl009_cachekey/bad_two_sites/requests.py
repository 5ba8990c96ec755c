"""A request keyed at two sites, one of which drops `within`.

``service.py`` passes ``within`` to ``request_cache_key``;
``sharded.py`` does not.  A field is only keyed when *every* key site
reads it, so ``within`` must be flagged even though one site keys it.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class JoinRequest:
    a: str
    b: str
    algorithm: str = "auto"
    space: str = "euclidean"
    parameters: dict = field(default_factory=dict)
    label: str = ""
    within: float = 0.0
