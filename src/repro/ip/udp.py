"""A minimal UDP-like datagram service (used by Ekta)."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.ip.netstack import IpNode
from repro.ip.packet import IpPacket, UDP_HEADER_BYTES

DatagramHandler = Callable[[str, object, int], None]


class UdpService:
    """Datagram send/receive with port demultiplexing."""

    PROTOCOL = "udp"

    def __init__(self, node: IpNode, app_protocol: str = ""):
        self.node = node
        self.app_protocol = app_protocol or node.app_protocol
        self._handlers: Dict[int, DatagramHandler] = {}
        node.register_protocol(self.PROTOCOL, self._on_packet)

    def bind(self, port: int, handler: DatagramHandler) -> None:
        """Register a handler for datagrams arriving on ``port``."""
        self._handlers[port] = handler

    def send(self, dst: str, port: int, payload: object, payload_size: int, kind: str = "udp-data") -> bool:
        """Send a datagram; returns ``False`` if no route was available."""
        packet = IpPacket(
            src=self.node.node_id,
            dst=dst,
            protocol=self.PROTOCOL,
            payload=(port, payload),
            payload_size=payload_size + UDP_HEADER_BYTES,
            kind=kind,
            app_protocol=self.app_protocol,
        )
        return self.node.send(packet)

    def _on_packet(self, packet: IpPacket) -> None:
        port, payload = packet.payload
        handler = self._handlers.get(port)
        if handler is not None:
            handler(packet.src, payload, port)
