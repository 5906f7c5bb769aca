"""Simulated cryptographic primitives.

DAPES relies on NDN's data-centric security: every Data packet is signed by
its producer, the collection metadata is signed so peers can authenticate the
collection producer through common local trust anchors, and packet integrity
is verified either via per-packet digests listed in the metadata or via a
Merkle tree whose root hash is carried in the metadata.

The paper uses real RSA signatures via ndn-cxx; this reproduction substitutes
an HMAC-SHA256 based scheme (see :mod:`repro.crypto.signing`).  The substitution
preserves the semantics the protocol needs — sign/verify, digests, Merkle
roots, trust decisions — without external dependencies.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "digest": ("sha256_hex",),
    "keys": ("KeyPair",),
    "merkle": ("MerkleTree",),
    "signing": ("Signature", "sign", "verify"),
    "trust": ("TrustAnchorStore",),
})
