"""Unit tests for Interest/Data packets and their modelled wire sizes."""

import pytest

from repro.crypto import KeyPair, sign
from repro.ndn import Data, Interest, Name


# -------------------------------------------------------------------- packets
def test_interest_defaults():
    interest = Interest(name=Name("/a/b"))
    assert interest.lifetime > 0
    assert interest.hop_limit > 0
    assert not interest.can_be_prefix
    assert interest.nonce > 0


def test_interest_nonces_are_unique():
    nonces = {Interest(name=Name("/a")).nonce for _ in range(100)}
    assert len(nonces) == 100


def test_interest_validation():
    with pytest.raises(ValueError):
        Interest(name=Name("/a"), lifetime=0)
    with pytest.raises(ValueError):
        Interest(name=Name("/a"), hop_limit=-1)
    # Zero is a legal, exhausted hop budget (forwarders drop it instead).
    assert Interest(name=Name("/a"), hop_limit=0).hop_limit == 0


def test_interest_matches_exact_and_prefix():
    data = Data(name=Name("/a/b/1"), content=b"x")
    assert Interest(name=Name("/a/b/1")).matches(data)
    assert not Interest(name=Name("/a/b")).matches(data)
    assert Interest(name=Name("/a/b"), can_be_prefix=True).matches(data)


def test_interest_clone_for_forwarding_decrements_hop_limit():
    interest = Interest(name=Name("/a"), hop_limit=5)
    clone = interest.clone_for_forwarding()
    assert clone.hop_limit == 4
    assert clone.nonce == interest.nonce
    assert clone.name == interest.name


def test_interest_wire_size_includes_application_parameters():
    plain = Interest(name=Name("/a"))
    with_params = Interest(name=Name("/a"), application_parameters=b"x" * 50, application_parameters_size=50)
    assert with_params.wire_size >= plain.wire_size + 50


def test_data_content_must_be_bytes():
    with pytest.raises(TypeError):
        Data(name=Name("/a"), content="not-bytes")


def test_data_content_size_override_controls_wire_size():
    small = Data(name=Name("/a/0"), content=b"tiny")
    modelled = Data(name=Name("/a/0"), content=b"tiny", content_size_override=1024)
    assert modelled.content_size == 1024
    assert modelled.wire_size > small.wire_size


def test_data_wire_size_includes_signature():
    key = KeyPair.generate("/p", seed=b"k")
    unsigned = Data(name=Name("/a/0"), content=b"payload")
    signed = Data(name=Name("/a/0"), content=b"payload", signature=sign("/a/0", b"payload", key))
    assert signed.wire_size > unsigned.wire_size
