"""Common interface of the MANET routing protocols."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.ip.packet import IpPacket


class RoutingProtocol(ABC):
    """Base class: computes next hops and reacts to delivery failures."""

    def __init__(self):
        self.node = None

    def attach(self, node) -> None:
        """Bind the protocol to its :class:`~repro.ip.netstack.IpNode`."""
        self.node = node

    @abstractmethod
    def start(self) -> None:
        """Start periodic behaviour (proactive protocols) or internal timers."""

    @abstractmethod
    def next_hop(self, dst: str) -> Optional[str]:
        """Next hop towards ``dst``, or ``None`` when no route is known."""

    def on_delivery_failure(self, packet: IpPacket, next_hop: str) -> None:
        """Called when forwarding ``packet`` to ``next_hop`` failed (broken link)."""

    def on_no_route(self, packet: IpPacket) -> None:
        """Called when a packet had to be dropped because no route exists."""

    @property
    def state_size_bytes(self) -> int:
        """Approximate routing-state footprint (baseline memory accounting)."""
        return 0
