"""Tests for the DHT, Bithoc and Ekta baseline implementations."""

import pytest

from repro.baselines import DhtKeySpace, DhtRegistry, SwarmDescriptor, build_bithoc_peer, build_ekta_peer
from repro.baselines.dht import circular_distance, dht_id
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium


# ------------------------------------------------------------------------ DHT
def test_dht_ids_are_stable_and_distinct():
    assert dht_id("node-1") == dht_id("node-1")
    assert dht_id("node-1") != dht_id("node-2")


def test_circular_distance_wraps():
    size = 1 << 64
    assert circular_distance(0, size - 1) == 1
    assert circular_distance(5, 5) == 0


def test_keyspace_root_is_deterministic_and_member_bound():
    keyspace = DhtKeySpace()
    assert keyspace.root_of("key") is None
    for member in ("n1", "n2", "n3"):
        keyspace.add_member(member)
    root = keyspace.root_of("some/key")
    assert root in ("n1", "n2", "n3")
    assert keyspace.root_of("some/key") == root


def test_keyspace_root_follows_membership_changes():
    """``root_of`` is memoized; a join must clear the memo."""
    members = [f"n{index}" for index in range(12)]
    keys = ("a", "b/c", "file-0", "piece-7")
    grown = DhtKeySpace()
    for count, member in enumerate(members, 1):
        grown.add_member(member)
        fresh = DhtKeySpace()
        for other in members[:count]:
            fresh.add_member(other)
        assert [grown.root_of(key) for key in keys] == [fresh.root_of(key) for key in keys]


def test_registry_publish_and_lookup():
    registry = DhtRegistry()
    registry.publish("key", "provider-1")
    registry.publish("key", "provider-2")
    registry.publish("key", "provider-1")
    assert registry.providers("key") == ["provider-1", "provider-2"]
    assert registry.providers("other") == []
    assert len(registry) == 1


# ------------------------------------------------------------------ descriptor
def test_swarm_descriptor_file_mapping():
    descriptor = SwarmDescriptor("coll", total_pieces=10, piece_size=1024, files=3)
    assert descriptor.pieces_per_file == 4
    assert descriptor.file_of_piece(0) == 0
    assert descriptor.file_of_piece(4) == 1
    assert descriptor.file_of_piece(9) == 2
    with pytest.raises(IndexError):
        descriptor.file_of_piece(10)
    with pytest.raises(ValueError):
        SwarmDescriptor("coll", total_pieces=0, piece_size=1)


# --------------------------------------------------------------------- Bithoc
def build_static_world(positions, seed=1, loss_rate=0.05):
    sim = Simulator(seed=seed)
    mobility = StaticPlacement(positions)
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=loss_rate))
    return sim, medium


def test_bithoc_two_node_transfer_completes():
    sim, medium = build_static_world({"seed": (0, 0), "leech": (30, 0)})
    descriptor = SwarmDescriptor("coll", total_pieces=20, piece_size=1024, files=2)
    seed_peer = build_bithoc_peer(sim, medium, "seed", descriptor, seed_all=True)
    leech = build_bithoc_peer(sim, medium, "leech", descriptor)
    for peer in (seed_peer, leech):
        peer.set_swarm(["seed", "leech"])
        peer.start()
    sim.run(until=120.0)
    assert leech.is_complete
    assert leech.download_time() is not None
    # Overhead includes HELLO flooding, DSDV updates and TCP traffic.
    kinds = medium.stats.transmitted_by_kind
    assert kinds["bithoc-hello"] > 0 and kinds["dsdv-update"] > 0 and kinds["tcp-data"] > 0


def test_bithoc_multi_hop_transfer_through_forwarder():
    sim, medium = build_static_world({"seed": (0, 0), "relay": (50, 0), "leech": (100, 0)})
    descriptor = SwarmDescriptor("coll", total_pieces=10, piece_size=1024, files=1)
    seed_peer = build_bithoc_peer(sim, medium, "seed", descriptor, seed_all=True)
    build_bithoc_peer(sim, medium, "relay", descriptor, forwarder_only=True)
    leech = build_bithoc_peer(sim, medium, "leech", descriptor)
    for peer in (seed_peer, leech):
        peer.set_swarm(["seed", "leech"])
        peer.start()
    sim.run(until=200.0)
    assert leech.is_complete


def test_bithoc_close_neighbours_classified_by_hops():
    sim, medium = build_static_world({"seed": (0, 0), "leech": (30, 0)}, loss_rate=0.0)
    descriptor = SwarmDescriptor("coll", total_pieces=4, piece_size=512, files=1)
    seed_peer = build_bithoc_peer(sim, medium, "seed", descriptor, seed_all=True)
    leech = build_bithoc_peer(sim, medium, "leech", descriptor)
    for peer in (seed_peer, leech):
        peer.set_swarm(["seed", "leech", "ghost-far-peer"])
        peer.start()
    sim.run(until=10.0)
    assert "seed" in leech.close_neighbors()
    assert "ghost-far-peer" in leech.far_peers()


def test_bithoc_rarest_piece_selection_uses_neighbour_bitmaps():
    sim, medium = build_static_world({"a": (0, 0)})
    descriptor = SwarmDescriptor("coll", total_pieces=4, piece_size=512, files=1)
    peer = build_bithoc_peer(sim, medium, "a", descriptor)
    from repro.baselines.bithoc import _NeighborInfo
    from repro.core import Bitmap

    neighbours = {"x": Bitmap(4, set_bits=[1, 2]), "y": Bitmap(4, set_bits=[2])}
    # Piece 2 is held by both (common), piece 1 by one (rarer among holders).
    assert Bitmap.rarest(peer.bitmap.missing_mask(), neighbours.values()) == 1
    assert peer.holders_of(2, neighbours) == ["x", "y"]
    assert Bitmap.rarest(peer.bitmap.missing_mask([1]), neighbours.values()) == 2
    # Only pieces some neighbour holds are candidates, and held pieces are not.
    assert Bitmap.rarest(peer.bitmap.missing_mask([1, 2]), neighbours.values()) is None
    assert Bitmap.rarest(peer.bitmap.missing_mask(), []) is None
    peer.add_piece(1)
    assert Bitmap.rarest(peer.bitmap.missing_mask(), neighbours.values()) == 2

    # The engine tick requests through the same ranking: the rare piece 1
    # from its one holder, then piece 2; with no far peer, nothing else.
    peer = build_bithoc_peer(sim, medium, "b", descriptor)
    peer._neighbors = {
        name: _NeighborInfo(bitmap=bitmap, hops=1, last_heard=0.0) for name, bitmap in neighbours.items()
    }
    peer._engine_tick()
    assert list(peer._outstanding) == [1, 2]
    assert peer._outstanding[1][0] == "x"
    # A far peer is asked for the first piece no close neighbour holds.
    peer.set_swarm(["x", "y", "far"])
    peer._engine_tick()
    assert list(peer._outstanding) == [1, 2, 0, 3]
    assert peer._outstanding[0][0] == peer._outstanding[3][0] == "far"


# ----------------------------------------------------------------------- Ekta
def test_ekta_two_node_transfer_completes():
    sim, medium = build_static_world({"seed": (0, 0), "leech": (30, 0)})
    descriptor = SwarmDescriptor("coll", total_pieces=20, piece_size=1024, files=2)
    keyspace = DhtKeySpace()
    seed_peer = build_ekta_peer(sim, medium, "seed", descriptor, keyspace, seed_all=True)
    leech = build_ekta_peer(sim, medium, "leech", descriptor, keyspace)
    for peer in (seed_peer, leech):
        peer.set_swarm(["seed", "leech"])
        peer.start()
    sim.run(until=200.0)
    assert leech.is_complete
    kinds = medium.stats.transmitted_by_kind
    assert kinds.get("ekta-piece", 0) >= 20


def test_ekta_publishes_and_looks_up_providers_through_dht():
    sim, medium = build_static_world({"seed": (0, 0), "leech": (30, 0), "root": (30, 30)}, loss_rate=0.0)
    descriptor = SwarmDescriptor("coll", total_pieces=8, piece_size=512, files=1)
    keyspace = DhtKeySpace()
    seed_peer = build_ekta_peer(sim, medium, "seed", descriptor, keyspace, seed_all=True)
    leech = build_ekta_peer(sim, medium, "leech", descriptor, keyspace)
    root = build_ekta_peer(sim, medium, "root", descriptor, keyspace)
    for peer in (seed_peer, leech, root):
        peer.set_swarm(["seed", "leech", "root"])
        peer.start()
    sim.run(until=120.0)
    # Whoever is the root for the file key holds a provider record for the seed.
    key = f"{descriptor.collection_id}/file/0"
    root_id = keyspace.root_of(key)
    root_peer = {"seed": seed_peer, "leech": leech, "root": root}[root_id]
    assert "seed" in root_peer.registry.providers(key) or root_id == "seed"
    assert leech.is_complete


def test_ekta_learns_providers_from_received_pieces():
    sim, medium = build_static_world({"seed": (0, 0), "leech": (30, 0)}, loss_rate=0.0)
    descriptor = SwarmDescriptor("coll", total_pieces=6, piece_size=512, files=1)
    keyspace = DhtKeySpace()
    seed_peer = build_ekta_peer(sim, medium, "seed", descriptor, keyspace, seed_all=True)
    leech = build_ekta_peer(sim, medium, "leech", descriptor, keyspace)
    for peer in (seed_peer, leech):
        peer.set_swarm(["seed", "leech"])
        peer.start()
    sim.run(until=120.0)
    assert leech.is_complete
    assert any("seed" in providers for providers in leech._providers.values())


def test_forwarder_only_nodes_return_none():
    sim, medium = build_static_world({"f": (0, 0)})
    descriptor = SwarmDescriptor("coll", total_pieces=4, piece_size=512, files=1)
    assert build_bithoc_peer(sim, medium, "f", descriptor, forwarder_only=True) is None
    sim2, medium2 = build_static_world({"f": (0, 0)}, seed=2)
    assert build_ekta_peer(sim2, medium2, "f", descriptor, DhtKeySpace(), forwarder_only=True) is None
