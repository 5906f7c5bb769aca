"""The Pastry-style key space and provider registry used by Ekta.

Ekta integrates a Pastry-like DHT with DSR at the network layer: every node
owns a position in a circular key space derived from its identifier, and an
object key is stored at (its *root*) the node whose identifier is
numerically closest to the key.

This reproduction gives every swarm member knowledge of the other members'
identifiers, so overlay routing to the root is a single overlay hop (carried,
like every Ekta message, over a multi-hop DSR route).  Real Pastry needs
O(log N) overlay hops; collapsing them *under-counts* Ekta's overhead, i.e.
the simplification is conservative in favour of the baseline (see
:meth:`DhtKeySpace.root_of`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set

KEY_BITS = 64


def dht_id(identifier: str) -> int:
    """Position of ``identifier`` (node id or object name) in the key space."""
    digest = hashlib.sha256(identifier.encode("utf-8")).digest()
    return int.from_bytes(digest[: KEY_BITS // 8], "big")


def circular_distance(a: int, b: int) -> int:
    """Distance between two points on the circular key space."""
    size = 1 << KEY_BITS
    diff = abs(a - b) % size
    return min(diff, size - diff)


class DhtKeySpace:
    """Membership view used to find the root node of a key."""

    def __init__(self):
        # Member id -> its key-space position, hashed once when it joins.
        self._positions: Dict[str, int] = {}
        # Key -> its root: a pure function of the key and the membership,
        # so the memo lives until the membership changes.
        self._roots: Dict[str, str] = {}

    def add_member(self, node_id: str) -> None:
        if node_id not in self._positions:
            self._positions[node_id] = dht_id(node_id)
            self._roots.clear()

    def root_of(self, key: str) -> Optional[str]:
        """The member whose id is numerically closest to ``key``."""
        root = self._roots.get(key)
        if root is not None:
            return root
        if not self._positions:
            return None
        key_position = dht_id(key)
        root, _position = min(
            self._positions.items(),
            key=lambda item: (circular_distance(item[1], key_position), item[0]),
        )
        self._roots[key] = root
        return root


class DhtRegistry:
    """Provider records stored at a key's root node."""

    def __init__(self):
        self._providers: Dict[str, Set[str]] = {}

    def publish(self, key: str, provider: str) -> None:
        """Record that ``provider`` holds the object ``key``."""
        self._providers.setdefault(key, set()).add(provider)

    def providers(self, key: str) -> List[str]:
        """Known providers of ``key`` (sorted for determinism)."""
        return sorted(self._providers.get(key, set()))

    def __len__(self) -> int:
        return len(self._providers)

    @property
    def state_size_bytes(self) -> int:
        return sum(16 + 16 * len(providers) for providers in self._providers.values())
