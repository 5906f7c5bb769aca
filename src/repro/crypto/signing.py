"""Simulated signatures.

The scheme is HMAC-SHA256 keyed with a value derived from the signer's
private key.  Verification recomputes the tag from the claimed public key,
which works because the public key is itself derived from the private key —
this is *not* a real asymmetric scheme, but it provides exactly the behaviour
the protocol logic depends on: a signature binds content to a name and to a
producer identity, verification fails if any of the three change, and
verification requires knowing (and trusting) the producer's public key.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.keys import KeyPair


@dataclass(frozen=True)
class Signature:
    """A signature over a (name, content) pair.

    Attributes
    ----------
    signer:
        Identity of the producer that signed the packet.
    public_key:
        Producer public key used for verification.
    value:
        Hex-encoded signature tag.
    """

    signer: str
    public_key: str
    value: str

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the signature block."""
        return len(self.value) // 2 + len(self.signer) + len(self.public_key) // 2


@lru_cache(maxsize=4096)
def _signing_key(public_key: str) -> bytes:
    # Pure derivation; cached because every sign/verify re-derives the same
    # few producer keys.
    return hashlib.sha256(b"signing:" + public_key.encode("ascii")).digest()


def sign(name: str, content: bytes, key: KeyPair) -> Signature:
    """Sign ``(name, content)`` with ``key``; binds the content to its name."""
    tag = hmac.new(_signing_key(key.public_key), _message(name, content), hashlib.sha256)
    return Signature(signer=key.owner, public_key=key.public_key, value=tag.hexdigest())


def verify(name: str, content: bytes, signature: Signature) -> bool:
    """Verify that ``signature`` covers ``(name, content)``."""
    expected = hmac.new(
        _signing_key(signature.public_key), _message(name, content), hashlib.sha256
    ).hexdigest()
    return hmac.compare_digest(expected, signature.value)


def _message(name: str, content: bytes) -> bytes:
    name_bytes = name.encode("utf-8")
    return len(name_bytes).to_bytes(4, "big") + name_bytes + bytes(content)
