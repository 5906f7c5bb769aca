"""Unit and integration tests for the DAPES peer application."""

import pytest

from repro.core import CollectionBuilder, DapesConfig, DapesNamespace, build_dapes_peer, build_repository
from repro.crypto import KeyPair, TrustAnchorStore
from repro.mobility import ScriptedMobility, StaticPlacement
from repro.ndn import Interest
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium


def build_collection(files=1, file_size=8 * 1024, label="damaged-bridge"):
    builder = CollectionBuilder(label, 1533783192, packet_size=1024, producer="/residents/producer")
    for index in range(files):
        builder.add_file(f"file-{index}", size_bytes=file_size)
    return builder.build()


def build_pair(loss_rate=0.0, config=None, seed=3):
    sim = Simulator(seed=seed)
    mobility = StaticPlacement({"producer": (0, 0), "downloader": (20, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=loss_rate))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = config or DapesConfig()
    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=trust, key=key)
    downloader = build_dapes_peer(sim, medium, "downloader", config=config, trust=trust)
    return sim, medium, producer, downloader, trust


# ------------------------------------------------------------------ publishing
def test_publish_collection_creates_complete_session():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    session = producer.peer.sessions[metadata.collection]
    assert session.producer
    assert session.store.is_complete()
    assert session.metadata_segments  # signed metadata ready to serve
    assert producer.peer.has_metadata(metadata.collection)
    assert producer.peer.has_packet(metadata.collection, metadata.packet_name(0))


def test_metadata_segments_are_signed_by_producer_key(producer_key):
    sim, medium, producer, downloader, trust = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    session = producer.peer.sessions[metadata.collection]
    for segment in session.metadata_segments.values():
        assert trust.authenticate(str(segment.name), segment.content, segment.signature)


# ------------------------------------------------------------------ end-to-end
def test_two_peer_download_over_lossless_channel():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=60.0)
    assert downloader.peer.progress(metadata.collection) == 1.0
    assert downloader.peer.download_time(metadata.collection) is not None
    assert metadata.collection in downloader.peer.completed_collections


def test_two_peer_download_over_lossy_channel():
    sim, medium, producer, downloader, _ = build_pair(loss_rate=0.2, seed=4)
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=240.0)
    assert downloader.peer.progress(metadata.collection) == 1.0
    assert downloader.peer.load.retransmissions > 0


def test_digest_metadata_format_end_to_end():
    config = DapesConfig(metadata_format="digest")
    sim, medium, producer, downloader, _ = build_pair(config=config)
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=90.0)
    assert downloader.peer.progress(metadata.collection) == 1.0


def test_metadata_interest_with_forged_digest_is_not_answered():
    """An Interest naming a different metadata digest must not get our segment."""
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    peer = producer.peer
    forged = Interest(name=DapesNamespace.metadata_name(metadata.collection, "0" * 16, segment=0))
    peer._respond_metadata(forged)
    assert not peer._pending_responses
    genuine = metadata.name(segment=0)
    peer._respond_metadata(Interest(name=genuine))
    assert list(peer._pending_responses) == [genuine]
    # A prefix Interest (no segment component) is satisfied by segment 0 only
    # when it says it can be a prefix.
    peer._cancel_pending_response(genuine)
    peer._respond_metadata(Interest(name=metadata.name()))
    assert not peer._pending_responses
    peer._respond_metadata(Interest(name=metadata.name(), can_be_prefix=True))
    assert list(peer._pending_responses) == [genuine]


def test_untrusted_producer_is_rejected():
    sim = Simulator(seed=5)
    mobility = StaticPlacement({"producer": (0, 0), "downloader": (20, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    rogue_key = KeyPair.generate("/rogue", seed=b"rogue")
    empty_trust = TrustAnchorStore()  # the downloader trusts nobody
    config = DapesConfig()
    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=empty_trust, key=rogue_key)
    downloader = build_dapes_peer(sim, medium, "downloader", config=config, trust=empty_trust)
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=30.0)
    session = downloader.peer.sessions[metadata.collection]
    assert session.distrusted
    assert session.metadata is None
    assert downloader.peer.progress(metadata.collection) == 0.0


def test_download_time_none_before_completion():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    assert downloader.peer.download_time(metadata.collection) is None
    assert downloader.peer.progress(metadata.collection) == 0.0


def test_completion_callback_fired_once():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    completions = []
    downloader.peer.on_collection_complete(lambda peer, cid, when: completions.append((peer.node_id, cid)))
    producer.start()
    downloader.start()
    sim.run(until=60.0)
    assert completions == [("downloader", metadata.collection)]


def test_discovery_period_adapts_to_neighbour_presence():
    sim, medium, producer, downloader, _ = build_pair()
    peer = downloader.peer
    assert peer._discovery_period() == peer.config.discovery_period_idle
    peer._touch_neighbor("producer")
    assert peer._discovery_period() == peer.config.discovery_period_active


def test_third_peer_benefits_from_overhearing():
    """Two downloaders next to each other: one transmission can serve both."""
    sim = Simulator(seed=6)
    mobility = StaticPlacement({"producer": (0, 0), "d1": (20, 0), "d2": (25, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = DapesConfig()
    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=trust, key=key)
    d1 = build_dapes_peer(sim, medium, "d1", config=config, trust=trust)
    d2 = build_dapes_peer(sim, medium, "d2", config=config, trust=trust)
    metadata = producer.peer.publish_collection(build_collection(file_size=16 * 1024))
    d1.peer.join(metadata.collection)
    d2.peer.join(metadata.collection)
    for node in (producer, d1, d2):
        node.start()
    sim.run(until=120.0)
    assert d1.peer.progress(metadata.collection) == 1.0
    assert d2.peer.progress(metadata.collection) == 1.0
    overheard = d1.peer.load.packets_overheard + d2.peer.load.packets_overheard
    assert overheard > 0, "broadcast data should serve peers that did not request it"
    total_packets = metadata.total_packets
    # Far fewer data transmissions than two fully independent downloads with
    # per-packet request/response and retransmissions would need.
    assert medium.stats.transmitted_by_kind["collection-data"] <= 5 * total_packets


def test_repository_downloads_everything_it_discovers():
    sim = Simulator(seed=7)
    mobility = StaticPlacement({"producer": (0, 0), "repo": (20, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    producer = build_dapes_peer(sim, medium, "producer", config=DapesConfig(), trust=trust, key=key)
    repo = build_repository(sim, medium, "repo", trust=trust)
    metadata = producer.peer.publish_collection(build_collection())
    producer.start()
    repo.start()
    sim.run(until=90.0)
    # The repository was never told to join, it discovered the collection.
    assert repo.peer.progress(metadata.collection) == 1.0
    assert repo.peer.collections_served == 1


def test_carrier_delivers_collection_across_partitions():
    """A mobile carrier moves data between two segments that are never connected."""
    sim = Simulator(seed=8)
    mobility = ScriptedMobility()
    mobility.add_static_node("producer", 0.0, 0.0)
    mobility.add_static_node("remote", 300.0, 0.0)
    mobility.add_node("carrier", [(0.0, 10.0, 0.0), (60.0, 10.0, 0.0), (120.0, 290.0, 0.0), (400.0, 290.0, 0.0)])
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=50.0, loss_rate=0.05))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = DapesConfig()
    nodes = {
        node_id: build_dapes_peer(sim, medium, node_id, config=config, trust=trust,
                                  key=key if node_id == "producer" else None)
        for node_id in ("producer", "carrier", "remote")
    }
    metadata = nodes["producer"].peer.publish_collection(build_collection(file_size=6 * 1024))
    nodes["carrier"].peer.join(metadata.collection)
    nodes["remote"].peer.join(metadata.collection)
    for node in nodes.values():
        node.start()
    sim.run(until=400.0)
    carrier_time = nodes["carrier"].peer.download_time(metadata.collection)
    remote_time = nodes["remote"].peer.download_time(metadata.collection)
    assert carrier_time is not None and remote_time is not None
    assert remote_time > carrier_time  # the remote peer could only start after the carrier arrived


def test_state_size_and_load_counters_populate():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=60.0)
    assert downloader.peer.state_size_bytes > 0
    load = downloader.peer.load
    assert load.packets_downloaded > 0
    assert load.messages_sent > 0
    assert load.context_switches > 0
    assert load.system_calls > 0
    assert load.memory_overhead_mb >= 0.0
    assert producer.peer.load.interests_answered > 0
