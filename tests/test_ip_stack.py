"""Unit tests for the IP substrate: netstack, UDP and the TCP-like transport."""

import pytest

from repro.ip import IpNode, IpPacket, ReliableTransport, UdpService
from repro.manet import DsdvRouting
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium


def build_ip_world(positions, loss_rate=0.0, wifi_range=60.0, seed=1):
    sim = Simulator(seed=seed)
    mobility = StaticPlacement(positions)
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=wifi_range, loss_rate=loss_rate))
    nodes = {}
    for node_id in positions:
        node = IpNode(sim, medium, node_id, app_protocol="test")
        routing = DsdvRouting(update_interval=1.0)
        node.attach_routing(routing)
        routing.start()
        nodes[node_id] = node
    return sim, medium, nodes


def spy_on(obj, method):
    """Record the arguments of every call to ``obj.method`` (still calling it)."""
    calls = []
    original = getattr(obj, method)

    def spy(*args):
        calls.append(args)
        return original(*args)

    setattr(obj, method, spy)
    return calls


def test_ip_packet_wire_size_includes_headers_and_source_route():
    plain = IpPacket(src="a", dst="b", protocol="udp", payload=None, payload_size=100)
    routed = IpPacket(src="a", dst="b", protocol="udp", payload=None, payload_size=100,
                      source_route=["a", "x", "b"])
    assert plain.wire_size == 120
    assert routed.wire_size == 132


def test_ip_packet_validation():
    with pytest.raises(ValueError):
        IpPacket(src="a", dst="b", protocol="udp", payload=None, payload_size=-1)
    with pytest.raises(ValueError):
        IpPacket(src="a", dst="b", protocol="udp", payload=None, payload_size=1, ttl=0)


def test_udp_single_hop_delivery():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "b": (30, 0)})
    udp_a = UdpService(nodes["a"])
    udp_b = UdpService(nodes["b"])
    received = []
    udp_b.bind(9, lambda src, payload, port: received.append((src, payload)))
    sim.run(until=3.0)  # let DSDV learn routes
    assert udp_a.send("b", 9, {"hello": 1}, 64)
    sim.run(until=4.0)
    assert received == [("a", {"hello": 1})]


def test_udp_multi_hop_forwarding_over_dsdv():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "m": (50, 0), "b": (100, 0)})
    udp_a = UdpService(nodes["a"])
    udp_b = UdpService(nodes["b"])
    received = []
    udp_b.bind(9, lambda src, payload, port: received.append(payload))
    sim.run(until=6.0)  # two update rounds so the 2-hop route propagates
    assert udp_a.send("b", 9, "via-m", 64)
    sim.run(until=8.0)
    assert received == ["via-m"]
    assert medium.stats.transmitted_by_kind["udp-data"] == 2  # a -> m, then m -> b


def test_send_without_route_reports_drop():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "b": (500, 0)})
    udp_a = UdpService(nodes["a"])
    no_route = spy_on(nodes["a"].routing, "on_no_route")
    assert not udp_a.send("b", 9, "x", 64)
    assert [packet.dst for (packet,) in no_route] == ["b"]
    assert medium.stats.transmitted_by_kind["udp-data"] == 0


def test_delivery_failure_detected_when_next_hop_out_of_range():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "b": (30, 0)})
    sim.run(until=3.0)
    # b "walks away": replace its position beyond range, keeping stale routes at a.
    mobility = medium.mobility
    mobility.place("b", 500.0, 0.0)
    udp_a = UdpService(nodes["a"])
    failures = spy_on(nodes["a"].routing, "on_delivery_failure")
    assert not udp_a.send("b", 9, "x", 64)
    assert [next_hop for _packet, next_hop in failures] == ["b"]
    assert medium.stats.transmitted_by_kind["udp-data"] == 0


def test_ttl_expiry_drops_packet():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "m": (50, 0), "b": (100, 0)})
    received = []
    UdpService(nodes["b"]).bind(9, lambda src, payload, port: received.append(payload))
    sim.run(until=6.0)
    packet = IpPacket(src="a", dst="b", protocol="udp", payload=(9, "x"), payload_size=16, ttl=1)
    assert nodes["a"].send(packet)
    sim.run(until=7.0)
    # a -> m went on the air; m, holding the last hop of its TTL, dropped it.
    assert medium.stats.transmitted_by_kind["ip-data"] == 1
    assert received == []


def test_reliable_transport_delivers_message():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "b": (30, 0)})
    tcp_a = ReliableTransport(nodes["a"], sim)
    tcp_b = ReliableTransport(nodes["b"], sim)
    received, delivered = [], []
    tcp_b.bind(80, lambda src, payload: received.append((src, payload)))
    sim.run(until=3.0)
    tcp_a.send_message("b", 80, {"piece": 5}, 4000, on_delivered=lambda: delivered.append(True))
    sim.run(until=8.0)
    assert received == [("a", {"piece": 5})]
    assert delivered == [True]
    assert medium.stats.transmitted_by_kind["tcp-data"] >= 3  # 4000 B splits into 3 segments
    assert medium.stats.transmitted_by_kind["tcp-ack"] >= 3


def test_reliable_transport_retransmits_over_lossy_link():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "b": (30, 0)}, loss_rate=0.3, seed=7)
    tcp_a = ReliableTransport(nodes["a"], sim, initial_timeout=0.5)
    tcp_b = ReliableTransport(nodes["b"], sim)
    received = []
    tcp_b.bind(80, lambda src, payload: received.append(payload))
    sim.run(until=3.0)
    for index in range(5):
        tcp_a.send_message("b", 80, index, 1200)
    sim.run(until=30.0)
    assert sorted(received) == [0, 1, 2, 3, 4]


def test_reliable_transport_gives_up_when_destination_unreachable():
    sim, medium, nodes = build_ip_world({"a": (0, 0), "b": (500, 0)})
    tcp_a = ReliableTransport(nodes["a"], sim, initial_timeout=0.2, max_retries=2)
    failed = []
    sim.run(until=2.0)
    tcp_a.send_message("b", 80, "x", 100, on_failed=lambda: failed.append(True))
    sim.run(until=10.0)
    assert failed == [True]
    sim.run(until=60.0)
    assert failed == [True]  # given up once, never retried
