"""Key pairs.

Each participant (resident) owns a public/private key pair used to sign the
packets it produces.  Key material is random bytes; the "public key" is a
digest of the private key, which is all the simulated signature scheme in
:mod:`repro.crypto.signing` needs.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class KeyPair:
    """A named key pair.

    Attributes
    ----------
    owner:
        Identity of the key owner (e.g. ``"/residents/alice"``).
    private_key:
        Secret bytes, held only by the owner.
    public_key:
        Publicly shared identifier derived from the private key.
    """

    owner: str
    private_key: bytes
    public_key: str = field(default="")

    def __post_init__(self) -> None:
        if not self.private_key:
            raise ValueError("private_key must be non-empty")
        if not self.public_key:
            object.__setattr__(self, "public_key", derive_public_key(self.private_key))

    @classmethod
    def generate(cls, owner: str, seed: Optional[bytes] = None) -> "KeyPair":
        """Generate a fresh key pair for ``owner``.

        Passing ``seed`` makes generation deterministic (used by tests and by
        deterministic simulation scenarios).
        """
        if seed is None:
            private = os.urandom(32)
        else:
            private = hashlib.sha256(b"key:" + seed).digest()
        return cls(owner=owner, private_key=private)


def derive_public_key(private_key: bytes) -> str:
    """Derive the public identifier for a private key."""
    return hashlib.sha256(b"public:" + private_key).hexdigest()

