"""Unit tests for collection metadata (Section IV-C) and the packet store."""

import pytest

from repro.crypto import KeyPair, verify
from repro.core import CollectionBuilder, FileSpec, MetadataFormat, PacketStore
from repro.core.collection import synthetic_packet_content
from repro.core.metadata import CollectionMetadata, build_metadata
from repro.ndn import Name


@pytest.fixture
def collection():
    return (
        CollectionBuilder("damaged-bridge", 1533783192, packet_size=1024, producer="/producer")
        .add_file("bridge-picture", size_bytes=5 * 1024)
        .add_file("bridge-location", size_bytes=2 * 1024)
        .build()
    )


@pytest.fixture
def producer_key():
    return KeyPair.generate("/producer", seed=b"p")


# ----------------------------------------------------------------- collections
def test_collection_packet_counts(collection):
    assert collection.total_packets == 7  # 5 + 2 packets
    assert sum(spec.size_bytes for spec in collection.files) == 7 * 1024


def test_file_spec_validation():
    with pytest.raises(ValueError):
        FileSpec(name="has/slash", size_bytes=10)
    with pytest.raises(ValueError):
        FileSpec(name="empty", size_bytes=0)


def test_collection_rejects_duplicate_file_names():
    builder = CollectionBuilder("c", 1, packet_size=128)
    builder.add_file("same", size_bytes=100)
    builder.add_file("same", size_bytes=100)
    with pytest.raises(ValueError):
        builder.build()


def test_file_with_real_content_packetises_exactly():
    content = bytes(range(256)) * 5  # 1280 bytes
    builder = CollectionBuilder("c", 1, packet_size=512).add_file("real", content=content)
    collection = builder.build()
    metadata = collection.build_metadata("digest")
    payloads = [collection.packet_payload(metadata, i) for i in range(metadata.total_packets)]
    assert b"".join(payloads) == content


# -------------------------------------------------------------------- metadata
def test_digest_metadata_lists_per_packet_digests(collection):
    metadata = collection.build_metadata(MetadataFormat.DIGEST)
    assert metadata.format is MetadataFormat.DIGEST
    assert all(len(file.packet_digests) == file.packet_count for file in metadata.files)
    assert all(file.merkle_root is None for file in metadata.files)


def test_merkle_metadata_carries_one_root_per_file(collection):
    metadata = collection.build_metadata(MetadataFormat.MERKLE)
    assert all(file.merkle_root and not file.packet_digests for file in metadata.files)


def test_merkle_metadata_is_much_smaller_than_digest_metadata():
    builder = CollectionBuilder("big", 1, packet_size=1024, producer="/p")
    builder.add_file("file", size_bytes=200 * 1024)  # 200 packets
    collection = builder.build()
    digest_size = collection.build_metadata("digest").wire_size
    merkle_size = collection.build_metadata("merkle").wire_size
    assert merkle_size < digest_size / 10


def test_bitmap_ordering_follows_file_then_sequence(collection):
    metadata = collection.build_metadata("merkle")
    assert metadata.global_index("bridge-picture", 0) == 0
    assert metadata.global_index("bridge-picture", 4) == 4
    assert metadata.global_index("bridge-location", 0) == 5
    assert metadata.locate(6) == ("bridge-location", 1)


def test_global_index_bounds_checked(collection):
    metadata = collection.build_metadata("merkle")
    with pytest.raises(KeyError):
        metadata.global_index("missing-file", 0)
    with pytest.raises(IndexError):
        metadata.global_index("bridge-picture", 99)
    with pytest.raises(IndexError):
        metadata.locate(metadata.total_packets)


def test_packet_name_and_index_roundtrip(collection):
    metadata = collection.build_metadata("merkle")
    for index in range(metadata.total_packets):
        name = metadata.packet_name(index)
        assert metadata.packet_index_of(name) == index


def test_packet_index_of_foreign_name_is_none(collection):
    metadata = collection.build_metadata("merkle")
    assert metadata.packet_index_of(Name("/other-collection/file/0")) is None
    assert metadata.packet_index_of(Name("/damaged-bridge-1533783192/unknown-file/0")) is None


def test_digest_verification_per_packet(collection):
    metadata = collection.build_metadata("digest")
    payload = collection.packet_payload(metadata, 0)
    assert metadata.verify_packet(0, payload) is True
    assert metadata.verify_packet(0, b"tampered") is False


def test_merkle_verification_is_deferred_to_file_level(collection):
    metadata = collection.build_metadata("merkle")
    payload = collection.packet_payload(metadata, 0)
    assert metadata.verify_packet(0, payload) is None
    contents = [collection.packet_payload(metadata, metadata.global_index("bridge-picture", i)) for i in range(5)]
    assert metadata.verify_file("bridge-picture", contents)
    assert not metadata.verify_file("bridge-picture", contents[:-1])
    assert not metadata.verify_file("bridge-picture", contents[:-1] + [b"bad"])


def test_metadata_encode_decode_roundtrip(collection):
    for fmt in ("digest", "merkle"):
        metadata = collection.build_metadata(fmt)
        decoded = CollectionMetadata.decode(metadata.encode())
        assert decoded.collection == metadata.collection
        assert decoded.format == metadata.format
        assert decoded.total_packets == metadata.total_packets
        assert decoded.digest == metadata.digest


def test_metadata_name_contains_digest(collection):
    metadata = collection.build_metadata("merkle")
    name = metadata.name()
    assert name[0] == metadata.collection
    assert name[1] == "metadata-file"
    assert name[2] == metadata.digest
    assert metadata.name(segment=2)[-1] == "2"


def test_build_metadata_rejects_empty_files():
    with pytest.raises(ValueError):
        build_metadata("c", [("empty", [])], "digest", "/p", 1024)
    with pytest.raises(ValueError):
        CollectionMetadata(collection="c", files=[], format=MetadataFormat.DIGEST, producer="/p", packet_size=1024)


# ---------------------------------------------------------------- packet store
def test_packet_store_accepts_verified_packets(collection, producer_key):
    metadata = collection.build_metadata("digest")
    store = PacketStore(metadata)
    data = collection.build_packet(metadata, 0, producer_key)
    assert store.add_packet(data, now=1.0)
    assert store.has(0)
    assert store.bitmap.count() == 1
    assert store.progress() == pytest.approx(1 / 7)


def test_packet_store_rejects_corrupted_digest_packet(collection, producer_key):
    metadata = collection.build_metadata("digest")
    store = PacketStore(metadata)
    data = collection.build_packet(metadata, 0, producer_key)
    data.content = b"corrupted"
    assert not store.add_packet(data)
    assert not store.has(0)


def test_packet_store_ignores_foreign_packets(collection, producer_key):
    metadata = collection.build_metadata("digest")
    store = PacketStore(metadata)
    from repro.ndn import Data

    assert not store.add_packet(Data(name=Name("/other/file/0"), content=b"x"))


def test_packet_store_completion_and_time(collection, producer_key):
    metadata = collection.build_metadata("digest")
    store = PacketStore(metadata)
    for index in range(metadata.total_packets):
        store.add_packet(collection.build_packet(metadata, index, producer_key), now=float(index))
    assert store.is_complete()
    assert store.completion_time == float(metadata.total_packets - 1)


def test_packet_store_merkle_drops_corrupt_file_on_completion(collection, producer_key):
    metadata = collection.build_metadata("merkle")
    store = PacketStore(metadata)
    base = metadata.global_index("bridge-location", 0)
    good = collection.build_packet(metadata, base, producer_key)
    bad = collection.build_packet(metadata, base + 1, producer_key)
    bad.content = b"tampered"  # merkle check can only catch this once the file is complete
    store.add_packet(good, now=0.0)
    store.add_packet(bad, now=0.0)
    # The whole file failed verification, so the unverified packets were dropped.
    assert not store.has(base + 1)
    assert not store.has(base)


def test_packet_store_mark_all_present(collection, producer_key):
    metadata = collection.build_metadata("digest")
    store = PacketStore(metadata)
    store.mark_all_present(collection, producer_key)
    assert store.is_complete()
    packet = store.packet(3)
    assert packet is not None and verify(str(packet.name), packet.content, packet.signature)


def test_packet_store_state_size_excludes_payload_bytes(collection, producer_key):
    metadata = collection.build_metadata("digest")
    store = PacketStore(metadata)
    store.mark_all_present(collection, producer_key)
    # Protocol state must stay far below the collection size (payloads go to disk).
    assert store.state_size_bytes < sum(spec.size_bytes for spec in collection.files) / 2


def test_synthetic_packet_content_is_deterministic():
    name = Name("/c/f/0")
    assert synthetic_packet_content(name) == synthetic_packet_content(Name("/c/f/0"))
    assert synthetic_packet_content(name) != synthetic_packet_content(Name("/c/f/1"))
