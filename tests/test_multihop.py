"""Integration tests for multi-hop communication (Section V)."""

import pytest

from repro.core import (
    CollectionBuilder,
    DapesConfig,
    PureForwarderNode,
    build_dapes_peer,
)
from repro.crypto import KeyPair, TrustAnchorStore
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium


def build_chain(middle_role, forwarding_probability=0.6, loss_rate=0.0, seed=3, multi_hop=True):
    """producer -- middle -- downloader, endpoints out of range of each other."""
    sim = Simulator(seed=seed)
    mobility = StaticPlacement({"producer": (0, 0), "middle": (55, 0), "downloader": (110, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=loss_rate))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = DapesConfig(multi_hop=multi_hop, forwarding_probability=forwarding_probability)

    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=trust, key=key)
    downloader = build_dapes_peer(sim, medium, "downloader", config=config, trust=trust)
    if middle_role == "pure":
        middle = PureForwarderNode(sim, medium, "middle", forward_probability=forwarding_probability)
    else:
        middle = build_dapes_peer(sim, medium, "middle", config=config, trust=trust)

    collection = (
        CollectionBuilder("chain-coll", 1533783192, packet_size=1024, producer="/residents/producer")
        .add_file("file-0", size_bytes=6 * 1024)
        .build()
    )
    metadata = producer.peer.publish_collection(collection)
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    if middle_role != "pure":
        middle.start()
    return sim, medium, producer, middle, downloader, metadata


def test_endpoints_are_not_directly_connected():
    sim, medium, *_ = build_chain("pure")
    assert "downloader" not in medium.neighbours_of("producer")
    assert "middle" in medium.neighbours_of("producer")
    assert "middle" in medium.neighbours_of("downloader")


def test_download_through_pure_forwarder():
    sim, medium, producer, middle, downloader, metadata = build_chain("pure")
    sim.run(until=300.0)
    assert downloader.peer.progress(metadata.collection) == 1.0
    # The pure forwarder served requests from its Content Store / re-broadcasts.
    assert middle.forwarder.stats.interests_forwarded > 0 or middle.forwarder.stats.cs_hits_served > 0
    assert len(middle.forwarder.cs) > 0


def test_download_through_intermediate_dapes_node():
    sim, medium, producer, middle, downloader, metadata = build_chain("dapes", seed=4)
    sim.run(until=300.0)
    assert downloader.peer.progress(metadata.collection) == 1.0
    # The relay runs DAPES but never joined the collection.
    assert metadata.collection not in middle.peer.join_targets
    assert middle.strategy.interests_rebroadcast > 0


def test_no_multi_hop_without_forwarding():
    """With multi-hop disabled and a DAPES relay that never rebroadcasts, the
    two-hop downloader cannot be served (the relay still answers nothing from
    its own store because it holds nothing)."""
    sim, medium, producer, middle, downloader, metadata = build_chain(
        "dapes", forwarding_probability=0.0, multi_hop=False, seed=5
    )
    sim.run(until=120.0)
    assert downloader.peer.progress(metadata.collection) < 1.0
    assert middle.strategy.interests_rebroadcast == 0


def test_intermediate_node_builds_knowledge_from_overheard_traffic():
    sim, medium, producer, middle, downloader, metadata = build_chain("dapes", seed=6)
    sim.run(until=300.0)
    # The relay built short-lived knowledge about the collection from the
    # traffic it overheard and used it to re-broadcast Interests.
    knowledge = middle.peer.knowledge
    assert knowledge.knows_collection(metadata.collection, sim.now)
    assert len(knowledge) > 0
    assert middle.strategy.interests_rebroadcast > 0
    # Two-hop progress over a purely probabilistic relay is substantial even
    # if a given seed does not finish within the bounded run time.
    assert downloader.peer.progress(metadata.collection) >= 0.6


def test_higher_forwarding_probability_increases_overhead():
    results = {}
    for probability in (0.2, 0.8):
        sim, medium, producer, middle, downloader, metadata = build_chain(
            "pure", forwarding_probability=probability, seed=7
        )
        sim.run(until=240.0)
        results[probability] = medium.stats.frames_transmitted
    assert results[0.8] >= results[0.2] * 0.9  # more forwarding should not reduce traffic
