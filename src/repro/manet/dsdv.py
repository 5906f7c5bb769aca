"""Destination-Sequenced Distance Vector routing (DSDV).

Every node periodically broadcasts its routing table (destination, metric,
sequence number).  A received advertisement installs or refreshes routes via
the neighbour it came from when the advertised sequence number is newer, or
equal with a better metric.  Broken links (detected by the IP stack through
missing link-layer acknowledgements) bump the destination's sequence number
to an odd value and trigger an immediate update — the classic DSDV behaviour
that makes it chatty under mobility, which is precisely the overhead source
the paper measures for Bithoc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.simulation import PeriodicTimer
from repro.ip.packet import IpPacket
from repro.manet.routing_base import RoutingProtocol

ROUTE_ENTRY_WIRE_BYTES = 12


@dataclass
class DsdvRoute:
    """One routing-table entry."""

    destination: str
    next_hop: str
    metric: int
    sequence: int
    installed_at: float


class DsdvRouting(RoutingProtocol):
    """Proactive distance-vector routing with destination sequence numbers."""

    def __init__(
        self,
        update_interval: float = 5.0,
        route_lifetime: float = 15.0,
        triggered_update_delay: float = 0.1,
    ):
        super().__init__()
        self.update_interval = update_interval
        self.route_lifetime = route_lifetime
        self.triggered_update_delay = triggered_update_delay
        self._routes: Dict[str, DsdvRoute] = {}
        self._own_sequence = 0
        self._update_timer: Optional[PeriodicTimer] = None
        self._triggered_pending = False

    # ---------------------------------------------------------------- set-up
    def attach(self, node) -> None:
        super().attach(node)
        node.register_broadcast("dsdv-update", self._on_update)

    def start(self) -> None:
        if self.node is None:
            raise RuntimeError("attach the protocol to a node before starting it")
        rng = self.node.sim.rng(f"dsdv.{self.node.node_id}")
        self._update_timer = PeriodicTimer(
            self.node.sim, self._broadcast_update, period=self.update_interval, jitter=0.5, rng=rng
        )
        self._update_timer.start(initial_delay=rng.uniform(0.0, 1.0))

    def stop(self) -> None:
        if self._update_timer is not None:
            self._update_timer.stop()

    # ------------------------------------------------------------- advertising
    def _broadcast_update(self) -> None:
        self._own_sequence += 2  # even sequence numbers: the destination is alive
        self._expire_routes()
        entries = [(self.node.node_id, 0, self._own_sequence)]
        for route in self._routes.values():
            entries.append((route.destination, route.metric, route.sequence))
        size = 8 + ROUTE_ENTRY_WIRE_BYTES * len(entries)
        self.node.broadcast(("dsdv", entries), size, kind="dsdv-update")

    def _trigger_update(self) -> None:
        if self._triggered_pending:
            return
        self._triggered_pending = True
        # Jitter keeps every node that learnt the same news from advertising
        # it at the exact same instant.
        jitter = self.node.sim.rng(f"dsdv.{self.node.node_id}").uniform(0.0, 0.2)

        def _fire() -> None:
            self._triggered_pending = False
            self._broadcast_update()

        self.node.sim.schedule(self.triggered_update_delay + jitter, _fire)

    # --------------------------------------------------------------- receiving
    def _on_update(self, sender: str, payload, kind: str) -> None:
        if self.node is None:
            return
        _, entries = payload
        now = self.node.sim.now
        changed = False
        for destination, metric, sequence in entries:
            if destination == self.node.node_id:
                continue
            new_metric = metric + 1
            current = self._routes.get(destination)
            accept = False
            if current is None:
                accept = True
            elif sequence > current.sequence:
                accept = True
            elif sequence == current.sequence and new_metric < current.metric:
                accept = True
            if accept:
                # Only genuine topology news (new destination, different next
                # hop or metric) triggers an immediate update; sequence-number
                # refreshes propagate with the next periodic advertisement.
                if current is None or current.next_hop != sender or current.metric != new_metric:
                    changed = True
                self._routes[destination] = DsdvRoute(
                    destination=destination,
                    next_hop=sender,
                    metric=new_metric,
                    sequence=sequence,
                    installed_at=now,
                )
        if changed:
            # Fresh topology information propagates through triggered updates.
            self._trigger_update()

    # ----------------------------------------------------------------- routing
    def next_hop(self, dst: str) -> Optional[str]:
        self._expire_routes()
        route = self._routes.get(dst)
        if route is None:
            return None
        return route.next_hop

    def on_delivery_failure(self, packet: IpPacket, next_hop: str) -> None:
        """A link broke: invalidate every route through that neighbour."""
        now = self.node.sim.now
        invalidated = False
        for destination in list(self._routes):
            route = self._routes[destination]
            if route.next_hop == next_hop:
                # Odd sequence number marks the route as broken (DSDV convention).
                del self._routes[destination]
                invalidated = True
        if invalidated:
            self._trigger_update()

    def _expire_routes(self) -> None:
        if self.node is None:
            return
        now = self.node.sim.now
        stale = [
            destination
            for destination, route in self._routes.items()
            if now - route.installed_at > self.route_lifetime
        ]
        for destination in stale:
            del self._routes[destination]

    # -------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        return ROUTE_ENTRY_WIRE_BYTES * len(self._routes) + 64
