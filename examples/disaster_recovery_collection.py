#!/usr/bin/env python3
"""Disaster-recovery file sharing in a rural area (the paper's use case).

A resident documents a damaged bridge (a picture plus a location note) and
shares the collection with other residents while everyone moves around an
area with no network infrastructure.  A stationary repository at a rest area
collects and re-serves the data, and two additional residents run DAPES but
are not interested in this collection — they act as intermediate nodes that
forward for others.

Run it with::

    python examples/disaster_recovery_collection.py
"""

from repro.crypto import KeyPair, TrustAnchorStore
from repro.core import CollectionBuilder, DapesConfig, build_dapes_peer
from repro.mobility import CompositeMobility, RandomDirectionMobility, StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium

RESIDENTS = ["resident-A", "resident-B", "resident-C", "resident-D", "resident-E"]
RELAYS = ["relay-F", "relay-G"]


def main() -> None:
    sim = Simulator(seed=7)

    # The rural area: 250 m x 250 m, residents walking 1-3 m/s, a repository
    # deployed at a rest area in the middle.
    mobility = CompositeMobility()
    walkers = RandomDirectionMobility(width=250, height=250, min_speed=1.0, max_speed=3.0,
                                      rng=sim.rng("mobility"))
    for node_id in RESIDENTS + RELAYS:
        walkers.add_node(node_id)
        mobility.assign(node_id, walkers)
    rest_area = StaticPlacement({"rest-area-repo": (125.0, 125.0)})
    mobility.assign("rest-area-repo", rest_area)

    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=70.0, loss_rate=0.10))

    # Residents share local trust anchors; resident A produces the collection.
    producer_key = KeyPair.generate("/rural/resident-A", seed=b"resident-a")
    trust = TrustAnchorStore()
    trust.add_anchor_key(producer_key)

    config = DapesConfig(rpf_strategy="local", bitmap_exchange="interleaved")
    nodes = {}
    for node_id in RESIDENTS:
        key = producer_key if node_id == "resident-A" else None
        nodes[node_id] = build_dapes_peer(sim, medium, node_id, config=config, trust=trust, key=key)
    for node_id in RELAYS:
        nodes[node_id] = build_dapes_peer(sim, medium, node_id, config=config, trust=trust)
    # The repository downloads every collection it discovers.
    nodes["rest-area-repo"] = build_dapes_peer(
        sim, medium, "rest-area-repo", config=config.with_overrides(interested_in_all=True),
        trust=trust, cs_capacity=16384,
    )

    collection = (
        CollectionBuilder("damaged-bridge", 1533783192, packet_size=1024, producer="/rural/resident-A")
        .add_file("bridge-picture", size_bytes=60 * 1024)
        .add_file("bridge-location", size_bytes=2 * 1024)
        .build()
    )
    metadata = nodes["resident-A"].peer.publish_collection(collection)
    for node_id in RESIDENTS[1:]:
        nodes[node_id].peer.join(metadata.collection)

    for node in nodes.values():
        node.start()
    sim.run(until=600.0)

    print(f"Collection: {metadata.collection_name} — {metadata.total_packets} packets")
    print(f"{'node':<16} {'progress':>9} {'download time':>14} {'overheard':>10}")
    for node_id in RESIDENTS[1:] + ["rest-area-repo"]:
        peer = nodes[node_id].peer
        progress = peer.progress(metadata.collection)
        elapsed = peer.download_time(metadata.collection)
        overheard = peer.load.packets_overheard
        elapsed_text = f"{elapsed:.1f} s" if elapsed is not None else "—"
        print(f"{node_id:<16} {progress:>8.0%} {elapsed_text:>14} {overheard:>10}")

    print(f"\nTotal frames transmitted: {medium.stats.frames_transmitted}")
    print(f"Collisions on the air   : {medium.stats.collisions}")
    relay_forwards = sum(nodes[r].strategy.interests_rebroadcast for r in RELAYS)
    print(f"Interests re-broadcast by the two relays: {relay_forwards}")


if __name__ == "__main__":
    main()
