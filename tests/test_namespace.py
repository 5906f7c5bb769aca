"""Unit tests for the DAPES namespace (Section IV-A)."""

import pytest

from repro.core import DapesNamespace
from repro.ndn import Name


def test_collection_name_includes_timestamp():
    name = DapesNamespace.collection_name("damaged-bridge", 1533783192)
    assert name == Name("/damaged-bridge-1533783192")
    assert len(name) == 1


def test_collection_name_rejects_empty_label():
    with pytest.raises(ValueError):
        DapesNamespace.collection_name("", 123)


def test_packet_name_structure():
    collection = DapesNamespace.collection_name("damaged-bridge", 1533783192)
    name = DapesNamespace.packet_name(collection, "bridge-picture", 0)
    assert name == Name("/damaged-bridge-1533783192/bridge-picture/0")


def test_packet_name_rejects_negative_sequence():
    with pytest.raises(ValueError):
        DapesNamespace.packet_name("/coll", "file", -1)


def test_parse_packet_name_roundtrip():
    parsed = DapesNamespace.parse_packet_name("/damaged-bridge-1533783192/bridge-picture/42")
    assert parsed is not None
    assert parsed.collection == "damaged-bridge-1533783192"
    assert parsed.file_name == "bridge-picture"
    assert parsed.sequence == 42
    assert DapesNamespace.packet_name(parsed.collection, parsed.file_name, parsed.sequence) == Name(
        "/damaged-bridge-1533783192/bridge-picture/42"
    )


def test_parse_packet_name_rejects_non_packet_names():
    assert DapesNamespace.parse_packet_name("/too/short") is None
    assert DapesNamespace.parse_packet_name("/a/b/not-a-number") is None
    assert DapesNamespace.parse_packet_name("/coll/metadata-file/abc") is None
    assert DapesNamespace.parse_packet_name("/a/b/c/d") is None


def test_metadata_name_and_detection():
    name = DapesNamespace.metadata_name("/damaged-bridge-1533783192", "a1b2c3", segment=0)
    assert DapesNamespace.is_metadata_name(name)
    assert DapesNamespace.metadata_collection(name) == "damaged-bridge-1533783192"
    assert name[-1] == "0"


def test_metadata_collection_rejects_other_names():
    with pytest.raises(ValueError):
        DapesNamespace.metadata_collection("/not/metadata")


def test_discovery_name_and_sender():
    name = DapesNamespace.discovery_name("peer-7", 3)
    assert DapesNamespace.is_discovery_name(name)
    assert DapesNamespace.discovery_sender(name) == "peer-7"
    assert not DapesNamespace.is_discovery_name("/damaged-bridge/file/0")


def test_discovery_sender_rejects_non_discovery():
    with pytest.raises(ValueError):
        DapesNamespace.discovery_sender("/other/name/x")


def test_bitmap_name_target_and_collection():
    name = DapesNamespace.bitmap_name("peer-3", "/damaged-bridge-1533783192", 9)
    assert DapesNamespace.is_bitmap_name(name)
    assert DapesNamespace.bitmap_target(name) == "peer-3"
    assert DapesNamespace.bitmap_collection(name) == "damaged-bridge-1533783192"


def test_bitmap_parsers_reject_other_names():
    with pytest.raises(ValueError):
        DapesNamespace.bitmap_target("/dapes/discovery/p/1")
    with pytest.raises(ValueError):
        DapesNamespace.bitmap_collection("/dapes/discovery/p/1")


def test_classify_covers_every_kind():
    assert DapesNamespace.classify("/dapes/discovery/p/1") == "discovery"
    assert DapesNamespace.classify("/dapes/bitmap/p/coll/1") == "bitmap"
    assert DapesNamespace.classify("/coll/metadata-file/abc/0") == "metadata"
    assert DapesNamespace.classify("/coll/file/0") == "collection-data"
