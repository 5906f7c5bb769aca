"""A TCP-like reliable message transport (used by Bithoc).

The goal is not to reimplement TCP, but to reproduce its *cost profile* over
multi-hop wireless paths, which is what drives the Bithoc results in the
paper: every application message is segmented, each segment must be
acknowledged end-to-end, losses and route breakage trigger timeouts and
retransmissions, and throughput collapses when the path keeps changing
(Holland & Vaidya, cited in the paper).

The transport delivers whole application messages, in order, per
(source, destination) pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.simulation import Simulator
from repro.ip.netstack import IpNode
from repro.ip.packet import IpPacket, TCP_HEADER_BYTES

MessageHandler = Callable[[str, object], None]

_message_ids = itertools.count(1)

MAX_SEGMENT_SIZE = 1400


@dataclass
class _Segment:
    message_id: int
    index: int
    total: int
    payload: object
    payload_size: int


@dataclass
class _PendingMessage:
    """Sender-side state for one in-flight message."""

    dst: str
    segments: list
    acked: set = field(default_factory=set)
    retries: int = 0
    timer: Optional[object] = None
    on_delivered: Optional[Callable[[], None]] = None
    on_failed: Optional[Callable[[], None]] = None


class ReliableTransport:
    """Reliable, ordered message delivery with ACKs and retransmissions."""

    PROTOCOL = "tcp"

    def __init__(
        self,
        node: IpNode,
        sim: Simulator,
        window: int = 4,
        initial_timeout: float = 1.0,
        max_timeout: float = 8.0,
        max_retries: int = 6,
        app_protocol: str = "",
    ):
        self.node = node
        self.sim = sim
        self.window = window
        self.initial_timeout = initial_timeout
        self.max_timeout = max_timeout
        self.max_retries = max_retries
        self.app_protocol = app_protocol or node.app_protocol
        self._handlers: Dict[int, MessageHandler] = {}
        self._pending: Dict[int, _PendingMessage] = {}
        self._reassembly: Dict[Tuple[str, int], Dict[int, object]] = {}
        node.register_protocol(self.PROTOCOL, self._on_packet)

    # ---------------------------------------------------------------- sending
    def bind(self, port: int, handler: MessageHandler) -> None:
        """Register the receive handler for messages sent to ``port``."""
        self._handlers[port] = handler

    def send_message(
        self,
        dst: str,
        port: int,
        payload: object,
        payload_size: int,
        on_delivered: Optional[Callable[[], None]] = None,
        on_failed: Optional[Callable[[], None]] = None,
    ) -> int:
        """Reliably send one application message; returns its message id."""
        message_id = next(_message_ids)
        segment_count = max(1, -(-payload_size // MAX_SEGMENT_SIZE))
        segments = []
        remaining = payload_size
        for index in range(segment_count):
            size = min(MAX_SEGMENT_SIZE, remaining)
            remaining -= size
            segments.append(
                _Segment(
                    message_id=message_id,
                    index=index,
                    total=segment_count,
                    payload=(port, payload if index == segment_count - 1 else None),
                    payload_size=size,
                )
            )
        pending = _PendingMessage(
            dst=dst, segments=segments, on_delivered=on_delivered, on_failed=on_failed
        )
        self._pending[message_id] = pending
        self._send_window(message_id)
        return message_id

    def _send_window(self, message_id: int) -> None:
        pending = self._pending.get(message_id)
        if pending is None:
            return
        in_flight = 0
        for segment in pending.segments:
            if segment.index in pending.acked:
                continue
            if in_flight >= self.window:
                break
            self._send_segment(pending.dst, segment)
            in_flight += 1
        timeout = min(self.initial_timeout * (2 ** pending.retries), self.max_timeout)
        pending.timer = self.sim.schedule(timeout, self._on_timeout, message_id)

    def _send_segment(self, dst: str, segment: _Segment) -> None:
        packet = IpPacket(
            src=self.node.node_id,
            dst=dst,
            protocol=self.PROTOCOL,
            payload=("data", segment),
            payload_size=segment.payload_size + TCP_HEADER_BYTES,
            kind="tcp-data",
            app_protocol=self.app_protocol,
        )
        self.node.send(packet)

    def _on_timeout(self, message_id: int) -> None:
        pending = self._pending.get(message_id)
        if pending is None:
            return
        if len(pending.acked) == len(pending.segments):
            return
        pending.retries += 1
        if pending.retries > self.max_retries:
            self._pending.pop(message_id, None)
            if pending.on_failed is not None:
                pending.on_failed()
            return
        self._send_window(message_id)

    # -------------------------------------------------------------- receiving
    def _on_packet(self, packet: IpPacket) -> None:
        tag, body = packet.payload
        if tag == "data":
            self._on_data_segment(packet.src, body)
        elif tag == "ack":
            self._on_ack(body)

    def _on_data_segment(self, src: str, segment: _Segment) -> None:
        # Acknowledge every received segment (cost of reliability).
        ack_packet = IpPacket(
            src=self.node.node_id,
            dst=src,
            protocol=self.PROTOCOL,
            payload=("ack", (segment.message_id, segment.index)),
            payload_size=TCP_HEADER_BYTES,
            kind="tcp-ack",
            app_protocol=self.app_protocol,
        )
        self.node.send(ack_packet)

        key = (src, segment.message_id)
        received = self._reassembly.setdefault(key, {})
        received[segment.index] = segment
        if len(received) == segment.total:
            del self._reassembly[key]
            final = received[segment.total - 1]
            port, payload = final.payload
            handler = self._handlers.get(port)
            if handler is not None:
                handler(src, payload)

    def _on_ack(self, ack) -> None:
        message_id, index = ack
        pending = self._pending.get(message_id)
        if pending is None:
            return
        pending.acked.add(index)
        if len(pending.acked) == len(pending.segments):
            if pending.timer is not None:
                self.sim.cancel(pending.timer)
            self._pending.pop(message_id, None)
            if pending.on_delivered is not None:
                pending.on_delivered()
