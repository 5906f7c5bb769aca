"""Per-node IP stack: forwarding, link broadcast and routing integration.

The stack owns the node's radio.  Unicast packets are forwarded hop by hop
along the routes computed by the attached MANET routing protocol (DSDV for
Bithoc, DSR for Ekta); link-layer broadcasts are used by the routing
protocols themselves and by Bithoc's HELLO flooding.

Link breakage is detected the way 802.11 detects it in practice — a missing
link-layer acknowledgement: before forwarding to a next hop the stack checks
whether that hop is still within range, and reports a delivery failure to the
routing protocol when it is not.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.simulation import Simulator
from repro.wireless.frames import Frame
from repro.wireless.medium import WirelessMedium
from repro.wireless.radio import Radio
from repro.ip.packet import IpPacket

PacketHandler = Callable[[IpPacket], None]
BroadcastHandler = Callable[[str, object, str], None]


class IpNode:
    """One node's IP networking stack."""

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        node_id: str,
        app_protocol: str = "",
        wifi_range: Optional[float] = None,
    ):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.app_protocol = app_protocol
        self.radio = Radio(sim, medium, node_id, wifi_range=wifi_range)
        self.radio.on_receive = self._on_frame
        self.routing = None
        self._protocol_handlers: Dict[str, PacketHandler] = {}
        self._broadcast_handlers: Dict[str, BroadcastHandler] = {}

    # ------------------------------------------------------------- wiring
    def attach_routing(self, routing) -> None:
        """Install the MANET routing protocol (DSDV, DSR, ...)."""
        self.routing = routing
        routing.attach(self)

    def register_protocol(self, protocol: str, handler: PacketHandler) -> None:
        """Register a handler for unicast packets of ``protocol`` addressed to us."""
        self._protocol_handlers[protocol] = handler

    def register_broadcast(self, kind: str, handler: BroadcastHandler) -> None:
        """Register a handler for link-broadcast messages of ``kind``."""
        self._broadcast_handlers[kind] = handler

    # ------------------------------------------------------------- sending
    def send(self, packet: IpPacket) -> bool:
        """Send (or forward) a unicast packet towards its destination.

        Returns ``False`` when no route exists or the next hop is unreachable.
        """
        if packet.dst == self.node_id:
            self._deliver(packet)
            return True
        if packet.ttl <= 0:
            return False
        # Source-routed protocols (DSR / Ekta) stamp the full route at the
        # origin so intermediate nodes never need route discoveries of their
        # own.
        if (
            packet.source_route is None
            and packet.src == self.node_id
            and self.routing is not None
            and hasattr(self.routing, "source_route_for")
        ):
            route = self.routing.source_route_for(packet.dst)
            if route is not None:
                packet.source_route = list(route)
        next_hop = self._next_hop(packet)
        if next_hop is None:
            if self.routing is not None:
                self.routing.on_no_route(packet)
            return False
        if next_hop not in self.medium.neighbours_of(self.node_id):
            # Link-layer delivery failure (no ACK): tell the routing protocol.
            if self.routing is not None:
                self.routing.on_delivery_failure(packet, next_hop)
            return False
        frame = Frame(
            sender=self.node_id,
            payload=packet,
            size_bytes=packet.wire_size,
            kind=packet.kind,
            protocol=packet.app_protocol or self.app_protocol,
            destination=next_hop,
        )
        self.radio.send(frame)
        return True

    def broadcast(self, payload, size_bytes: int, kind: str) -> None:
        """Link-layer broadcast (routing updates, HELLO flooding)."""
        frame = Frame(
            sender=self.node_id,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
            protocol=self.app_protocol,
        )
        self.radio.send(frame)

    def _next_hop(self, packet: IpPacket) -> Optional[str]:
        if packet.source_route:
            # DSR-style source routing: the next hop is the hop after us.
            try:
                index = packet.source_route.index(self.node_id)
            except ValueError:
                return None
            if index + 1 < len(packet.source_route):
                return packet.source_route[index + 1]
            return packet.dst if packet.dst != self.node_id else None
        if self.routing is None:
            return None
        return self.routing.next_hop(packet.dst)

    # ------------------------------------------------------------ receiving
    def _on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if isinstance(payload, IpPacket):
            if payload.dst == self.node_id:
                self._deliver(payload)
            elif payload.ttl > 1:
                self.send(payload.forwarded_copy())
            return
        handler = self._broadcast_handlers.get(frame.kind)
        if handler is not None:
            handler(frame.sender, payload, frame.kind)

    def _deliver(self, packet: IpPacket) -> None:
        handler = self._protocol_handlers.get(packet.protocol)
        if handler is not None:
            handler(packet)

    # ------------------------------------------------------------ utilities
    def neighbours(self) -> list[str]:
        return self.medium.neighbours_of(self.node_id)

    @property
    def state_size_bytes(self) -> int:
        """Routing-table footprint (baseline memory accounting)."""
        return self.routing.state_size_bytes if self.routing is not None else 0
