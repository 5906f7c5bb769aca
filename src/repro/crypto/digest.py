"""Content digests used for packet integrity verification."""

from __future__ import annotations

import hashlib


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest of ``data``."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).hexdigest()
