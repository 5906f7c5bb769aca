"""Unit tests for keys, signatures, digests, Merkle trees and trust anchors."""

import hashlib

import pytest

from repro.crypto import KeyPair, MerkleTree, TrustAnchorStore, sha256_hex, sign, verify
from repro.crypto.keys import derive_public_key


# ----------------------------------------------------------------------- keys
def test_key_generation_is_deterministic_with_seed():
    a = KeyPair.generate("/alice", seed=b"s")
    b = KeyPair.generate("/alice", seed=b"s")
    assert a.private_key == b.private_key
    assert a.public_key == b.public_key


def test_key_generation_without_seed_is_random():
    assert KeyPair.generate("/a").private_key != KeyPair.generate("/a").private_key


def test_public_key_derived_from_private():
    key = KeyPair.generate("/alice", seed=b"s")
    assert key.public_key == derive_public_key(key.private_key)


def test_empty_private_key_rejected():
    with pytest.raises(ValueError):
        KeyPair(owner="/a", private_key=b"")


# ------------------------------------------------------------------- digests
def test_sha256_hex_known_value():
    assert sha256_hex(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_sha256_hex_rejects_non_bytes():
    with pytest.raises(TypeError):
        sha256_hex("not-bytes")


# ---------------------------------------------------------------- signatures
def test_sign_and_verify_roundtrip():
    key = KeyPair.generate("/alice", seed=b"s")
    signature = sign("/name", b"content", key)
    assert verify("/name", b"content", signature)


def test_signature_binds_content_to_name():
    key = KeyPair.generate("/alice", seed=b"s")
    signature = sign("/name", b"content", key)
    assert not verify("/other-name", b"content", signature)
    assert not verify("/name", b"tampered", signature)


def test_signature_from_wrong_key_fails_verification():
    alice = KeyPair.generate("/alice", seed=b"a")
    mallory = KeyPair.generate("/mallory", seed=b"m")
    signature = sign("/name", b"content", alice)
    forged = type(signature)(signer=signature.signer, public_key=mallory.public_key, value=signature.value)
    assert not verify("/name", b"content", forged)


def test_signature_size_positive():
    key = KeyPair.generate("/alice", seed=b"a")
    assert sign("/n", b"c", key).size_bytes > 32


# -------------------------------------------------------------- merkle trees
def test_merkle_single_leaf_root_is_leaf_hash():
    assert MerkleTree([b"only"]).root == hashlib.sha256(b"leaf:only").hexdigest()


def test_merkle_root_changes_with_any_leaf():
    base = MerkleTree([b"a", b"b", b"c", b"d"]).root
    tampered = MerkleTree([b"a", b"b", b"x", b"d"]).root
    assert base != tampered


def test_merkle_root_depends_on_order():
    assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root


def test_merkle_empty_rejected():
    with pytest.raises(ValueError):
        MerkleTree([])


def test_merkle_root_of_convenience():
    assert MerkleTree.root_of([b"a", b"b"]) == MerkleTree([b"a", b"b"]).root


# ------------------------------------------------------------- trust anchors
def test_trust_anchor_authenticates_known_producer():
    key = KeyPair.generate("/producer", seed=b"p")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    signature = sign("/n", b"c", key)
    assert trust.authenticate("/n", b"c", signature)


def test_trust_anchor_rejects_unknown_signer():
    key = KeyPair.generate("/stranger", seed=b"s")
    trust = TrustAnchorStore()
    signature = sign("/n", b"c", key)
    assert not trust.authenticate("/n", b"c", signature)


def test_trust_anchor_rejects_key_mismatch():
    key = KeyPair.generate("/producer", seed=b"p")
    other = KeyPair.generate("/producer", seed=b"other")
    trust = TrustAnchorStore()
    trust.add_anchor_key(other)  # trusted under a different public key
    signature = sign("/n", b"c", key)
    assert not trust.authenticate("/n", b"c", signature)
