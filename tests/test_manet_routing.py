"""Unit tests for the DSDV and DSR routing protocols."""

import pytest

from repro.ip import IpNode, IpPacket, UdpService
from repro.manet import DsdvRouting, DsrRouting
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium


def build_world(positions, routing_factory, wifi_range=60.0, seed=1, loss_rate=0.0):
    sim = Simulator(seed=seed)
    mobility = StaticPlacement(positions)
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=wifi_range, loss_rate=loss_rate))
    nodes, routers = {}, {}
    for node_id in positions:
        node = IpNode(sim, medium, node_id, app_protocol="test")
        routing = routing_factory()
        node.attach_routing(routing)
        routing.start()
        nodes[node_id] = node
        routers[node_id] = routing
    return sim, medium, nodes, routers


def originated_rreqs(node):
    """Spy on ``node``'s link broadcasts: the ids of the Route Requests it originates."""
    sent = []
    broadcast = node.broadcast

    def spy(payload, size_bytes, kind):
        if kind == "dsr-rreq" and payload[1][0] == node.node_id:
            sent.append(payload[1])
        broadcast(payload, size_bytes, kind)

    node.broadcast = spy
    return sent


# ----------------------------------------------------------------------- DSDV
def test_dsdv_learns_direct_neighbours():
    sim, medium, nodes, routers = build_world({"a": (0, 0), "b": (30, 0)}, lambda: DsdvRouting(update_interval=1.0))
    sim.run(until=3.0)
    assert routers["a"].next_hop("b") == "b"
    assert routers["b"].next_hop("a") == "a"


def test_dsdv_learns_multi_hop_routes():
    sim, medium, nodes, routers = build_world(
        {"a": (0, 0), "m": (50, 0), "b": (100, 0)}, lambda: DsdvRouting(update_interval=1.0)
    )
    sim.run(until=6.0)
    assert routers["a"].next_hop("b") == "m"
    assert routers["a"].next_hop("m") == "m"


def test_dsdv_prefers_fresher_sequence_numbers_and_shorter_metrics():
    routing = DsdvRouting()
    sim = Simulator(seed=1)
    mobility = StaticPlacement({"x": (0, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig())
    node = IpNode(sim, medium, "x")
    node.attach_routing(routing)
    routing._on_update("n1", ("dsdv", [("dest", 2, 10)]), "dsdv-update")
    assert routing.next_hop("dest") == "n1"
    # Same sequence, worse metric: rejected.
    routing._on_update("n2", ("dsdv", [("dest", 5, 10)]), "dsdv-update")
    assert routing.next_hop("dest") == "n1"
    # Same sequence, better metric: accepted.
    routing._on_update("n3", ("dsdv", [("dest", 0, 10)]), "dsdv-update")
    assert routing.next_hop("dest") == "n3"
    # Newer sequence wins regardless of metric.
    routing._on_update("n4", ("dsdv", [("dest", 7, 12)]), "dsdv-update")
    assert routing.next_hop("dest") == "n4"


def test_dsdv_routes_expire():
    sim, medium, nodes, routers = build_world({"a": (0, 0), "b": (30, 0)},
                                              lambda: DsdvRouting(update_interval=1.0, route_lifetime=2.0))
    sim.run(until=3.0)
    assert routers["a"].next_hop("b") == "b"
    routers["a"].stop()
    routers["b"].stop()
    sim.run(until=10.0)
    assert routers["a"].next_hop("b") is None


def test_dsdv_delivery_failure_invalidates_routes_through_broken_hop():
    sim, medium, nodes, routers = build_world({"a": (0, 0), "b": (30, 0)}, lambda: DsdvRouting(update_interval=1.0))
    sim.run(until=3.0)
    packet = IpPacket(src="a", dst="b", protocol="udp", payload=(1, "x"), payload_size=8)
    routers["a"].on_delivery_failure(packet, "b")
    assert routers["a"].next_hop("b") is None


def test_dsdv_overhead_grows_with_periodic_updates():
    sim, medium, nodes, routers = build_world({"a": (0, 0), "b": (30, 0)}, lambda: DsdvRouting(update_interval=1.0))
    sim.run(until=10.0)
    assert medium.stats.transmitted_by_kind["dsdv-update"] >= 15
    assert routers["a"].state_size_bytes > 0


# ------------------------------------------------------------------------ DSR
def test_dsr_discovers_route_on_demand():
    sim, medium, nodes, routers = build_world(
        {"a": (0, 0), "m": (50, 0), "b": (100, 0)}, lambda: DsrRouting()
    )
    udp_a = UdpService(nodes["a"])
    udp_b = UdpService(nodes["b"])
    requests = originated_rreqs(nodes["a"])
    received = []
    udp_b.bind(7, lambda src, payload, port: received.append(payload))
    assert not udp_a.send("b", 7, "first", 64)  # triggers discovery, packet queued
    sim.run(until=10.0)
    assert received == ["first"]
    route = routers["a"].route_to("b")
    assert route == ["a", "m", "b"]
    assert len(requests) >= 1
    # Before discovery there was no route; afterwards data flows immediately.
    assert udp_a.send("b", 7, "second", 64)
    sim.run(until=12.0)
    assert received == ["first", "second"]


def test_dsr_source_routes_are_stamped_on_data_packets():
    sim, medium, nodes, routers = build_world(
        {"a": (0, 0), "m": (50, 0), "b": (100, 0)}, lambda: DsrRouting()
    )
    udp_a = UdpService(nodes["a"])
    UdpService(nodes["b"])
    requests = originated_rreqs(nodes["m"])
    udp_a.send("b", 7, "x", 64)
    sim.run(until=10.0)
    assert medium.stats.transmitted_by_kind["udp-data"] >= 2  # a -> m -> b
    # The intermediate node must not have needed a discovery of its own.
    assert requests == []


def test_dsr_reverse_route_learned_from_rreq():
    sim, medium, nodes, routers = build_world(
        {"a": (0, 0), "m": (50, 0), "b": (100, 0)}, lambda: DsrRouting()
    )
    udp_a = UdpService(nodes["a"])
    UdpService(nodes["b"])
    udp_a.send("b", 7, "x", 64)
    sim.run(until=10.0)
    assert routers["b"].route_to("a") == ["b", "m", "a"]


def test_dsr_route_error_purges_broken_link():
    sim, medium, nodes, routers = build_world(
        {"a": (0, 0), "m": (50, 0), "b": (100, 0)}, lambda: DsrRouting()
    )
    udp_a = UdpService(nodes["a"])
    UdpService(nodes["b"])
    udp_a.send("b", 7, "x", 64)
    sim.run(until=10.0)
    assert routers["a"].route_to("b") is not None
    packet = IpPacket(src="m", dst="b", protocol="udp", payload=(7, "y"), payload_size=8)
    routers["m"].on_delivery_failure(packet, "b")
    sim.run(until=12.0)
    # a heard the broadcast RERR for link (m, b) and dropped its cached route.
    assert routers["a"].route_to("b") is None


def test_dsr_discovery_gives_up_after_retries():
    sim, medium, nodes, routers = build_world(
        {"a": (0, 0), "b": (500, 0)}, lambda: DsrRouting(discovery_timeout=0.5, max_discovery_retries=2)
    )
    udp_a = UdpService(nodes["a"])
    udp_a.send("b", 7, "x", 64)
    sim.run(until=10.0)
    assert routers["a"].route_to("b") is None
    # b is out of range, so every Route Request on the air is a's.
    assert medium.stats.transmitted_by_kind["dsr-rreq"] == 3  # initial + 2 retries


def test_dsr_intermediate_nodes_do_not_start_discoveries_for_foreign_packets():
    routing = DsrRouting()
    sim = Simulator(seed=1)
    mobility = StaticPlacement({"m": (0, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig())
    node = IpNode(sim, medium, "m")
    node.attach_routing(routing)
    requests = originated_rreqs(node)
    foreign = IpPacket(src="someone-else", dst="far", protocol="udp", payload=(1, "x"), payload_size=8)
    routing.on_no_route(foreign)
    sim.run(until=5.0)
    assert requests == []
    assert medium.stats.frames_transmitted == 0


def test_dsr_route_cache_expires():
    routing = DsrRouting(route_lifetime=1.0)
    sim = Simulator(seed=1)
    mobility = StaticPlacement({"a": (0, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig())
    node = IpNode(sim, medium, "a")
    node.attach_routing(routing)
    routing._install_route(["a", "b"], now=0.0)
    assert routing.next_hop("b") == "b"
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert routing.route_to("b") is None


def test_dsr_duplicate_memory_is_two_bounded_generations():
    from repro.manet.dsr import SEEN_PERIOD, _RecentSet

    seen = _RecentSet()
    seen.add("a", 0.0)
    seen.add("b", SEEN_PERIOD * 0.5)
    # Remembered for at least one period after it was added...
    seen.add("c", SEEN_PERIOD * 1.2)
    assert "a" in seen and "b" in seen and "c" in seen
    # ...and gone once two windows have passed.
    seen.add("d", SEEN_PERIOD * 2.1)
    assert "a" not in seen and "b" not in seen
    assert "c" in seen and "d" in seen
    # A whole idle window drops both generations.
    seen.add("e", SEEN_PERIOD * 5.0)
    assert len(seen) == 1 and "e" in seen
