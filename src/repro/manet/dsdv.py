"""Destination-Sequenced Distance Vector routing (DSDV).

Every node periodically broadcasts its routing table (destination, metric,
sequence number).  A received advertisement installs or refreshes routes via
the neighbour it came from when the advertised sequence number is newer, or
equal with a better metric.  A broken link (detected by the IP stack through
missing link-layer acknowledgements) deletes every route through that
neighbour and triggers an immediate update; accepted topology news triggers
one too — the behaviour that makes DSDV chatty under mobility, which is
precisely the overhead source the paper measures for Bithoc.  Each handler
costs what the message changes: an accepted entry updates its route in
place, and the expiry sweep is skipped while no route can be stale yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.simulation import PeriodicTimer
from repro.ip.packet import IpPacket
from repro.manet.routing_base import RoutingProtocol

ROUTE_ENTRY_WIRE_BYTES = 12


@dataclass(slots=True)
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
        # A lower bound on every route's installed_at: the oldest one the
        # last expiry sweep kept (or that sweep's time when it kept none).
        # installed_at only grows between sweeps, so while now minus this
        # bound is within route_lifetime no route can be stale.
        self._oldest_install = 0.0
        self._own_sequence = 0
        self._update_timer: Optional[PeriodicTimer] = None
        self._triggered_pending = False
        self._rng = None

    # ---------------------------------------------------------------- set-up
    def attach(self, node) -> None:
        super().attach(node)
        self._rng = node.sim.rng(f"dsdv.{node.node_id}")
        node.register_broadcast("dsdv-update", self._on_update)

    def start(self) -> None:
        if self.node is None:
            raise RuntimeError("attach the protocol to a node before starting it")
        self._update_timer = PeriodicTimer(
            self.node.sim, self._broadcast_update, period=self.update_interval, jitter=0.5, rng=self._rng
        )
        self._update_timer.start(initial_delay=self._rng.uniform(0.0, 1.0))

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
        jitter = self._rng.uniform(0.0, 0.2)
        self.node.sim.schedule_call(self.triggered_update_delay + jitter, self._fire_triggered_update)

    def _fire_triggered_update(self) -> None:
        self._triggered_pending = False
        self._broadcast_update()

    # --------------------------------------------------------------- receiving
    def _on_update(self, sender: str, payload, kind: str) -> None:
        _, entries = payload
        now = self.node.sim.now
        own = self.node.node_id
        routes = self._routes
        changed = False
        for destination, metric, sequence in entries:
            current = routes.get(destination)
            if current is None:
                # The own id is never installed, so it always lands here.
                if destination != own:
                    routes[destination] = DsdvRoute(destination, sender, metric + 1, sequence, now)
                    changed = True
                continue
            new_metric = metric + 1
            if sequence > current.sequence or (sequence == current.sequence and new_metric < current.metric):
                # Only genuine topology news (new destination, different next
                # hop or metric) triggers an immediate update; sequence-number
                # refreshes propagate with the next periodic advertisement.
                if current.next_hop != sender or current.metric != new_metric:
                    changed = True
                    current.next_hop = sender
                    current.metric = new_metric
                current.sequence = sequence
                current.installed_at = now
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
        """A link broke: delete every route through that neighbour and trigger an update."""
        broken = [destination for destination, route in self._routes.items() if route.next_hop == next_hop]
        for destination in broken:
            del self._routes[destination]
        if broken:
            self._trigger_update()

    def _expire_routes(self) -> None:
        now = self.node.sim.now
        lifetime = self.route_lifetime
        if now - self._oldest_install <= lifetime:
            return
        oldest = now
        stale = []
        for destination, route in self._routes.items():
            installed_at = route.installed_at
            if now - installed_at > lifetime:
                stale.append(destination)
            elif installed_at < oldest:
                oldest = installed_at
        for destination in stale:
            del self._routes[destination]
        self._oldest_install = oldest

    # -------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        return ROUTE_ENTRY_WIRE_BYTES * len(self._routes) + 64
