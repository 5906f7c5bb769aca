"""Merkle tree over packet digests.

The Merkle-tree-based metadata format (Section IV-C of the paper) carries one
root hash per file instead of a digest per packet, keeping the metadata small
enough to fit in a single network-layer packet.  The trade-off is that a
receiver can only verify packet integrity once it holds every packet of the
tree.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence


def _hash_leaf(data: bytes) -> str:
    return hashlib.sha256(b"leaf:" + data).hexdigest()


def _hash_node(left: str, right: str) -> str:
    return hashlib.sha256(b"node:" + left.encode("ascii") + right.encode("ascii")).hexdigest()


class MerkleTree:
    """A binary Merkle tree built over a sequence of leaf payloads.

    Odd nodes at any level are promoted unchanged (no duplication).
    """

    def __init__(self, leaves: Sequence[bytes]):
        if not leaves:
            raise ValueError("a Merkle tree needs at least one leaf")
        self._levels: List[List[str]] = [[_hash_leaf(bytes(leaf)) for leaf in leaves]]
        while len(self._levels[-1]) > 1:
            current = self._levels[-1]
            parents: List[str] = []
            for index in range(0, len(current), 2):
                if index + 1 < len(current):
                    parents.append(_hash_node(current[index], current[index + 1]))
                else:
                    parents.append(current[index])
            self._levels.append(parents)

    @property
    def root(self) -> str:
        """The root hash."""
        return self._levels[-1][0]

    @classmethod
    def root_of(cls, leaves: Sequence[bytes]) -> str:
        """Convenience: the root hash of ``leaves`` without keeping the tree."""
        return cls(leaves).root
