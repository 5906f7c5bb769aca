"""Local trust anchors.

The paper assumes peers share "local" trust anchors (e.g. established among
the residents of the rural area) and use them to decide whether the producer
of a file collection can be trusted.  The trust model here is deliberately
simple: an anchor store holds the public keys of trusted identities; a
signature is trusted if its public key matches the stored anchor for the
claimed signer.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.keys import KeyPair
from repro.crypto.signing import Signature, verify


class TrustAnchorStore:
    """A peer's set of trusted identities and their public keys."""

    def __init__(self):
        self._anchors: Dict[str, str] = {}

    # ---------------------------------------------------------------- anchors
    def add_anchor(self, owner: str, public_key: str) -> None:
        """Trust ``owner`` with the given public key."""
        self._anchors[owner] = public_key

    def add_anchor_key(self, key: KeyPair) -> None:
        """Trust the owner of ``key`` (convenience for scenario setup)."""
        self.add_anchor(key.owner, key.public_key)

    def is_trusted(self, owner: str) -> bool:
        return owner in self._anchors

    def public_key_of(self, owner: str) -> Optional[str]:
        return self._anchors.get(owner)

    # ------------------------------------------------------------ verification
    def authenticate(self, name: str, content: bytes, signature: Signature) -> bool:
        """Full authentication: the signer is trusted, the key matches and the signature verifies."""
        expected_key = self.public_key_of(signature.signer)
        if expected_key is None or expected_key != signature.public_key:
            return False
        return verify(name, content, signature)

    def __len__(self) -> int:
        return len(self._anchors)
