"""Dynamic Source Routing (DSR).

Reactive routing: when a node needs a route it floods a Route Request
(RREQ); every node appends itself to the request's route record and
re-broadcasts it once per request id; the destination (or a node with a
cached route to it) answers with a Route Reply (RREP) carrying the full
source route, sent back along the reversed record.  Data packets carry the
source route in their header (the per-packet overhead the paper's Ekta
results include).  Broken links produce Route Errors (RERR) that purge the
offending link from caches and trigger a new discovery on demand.  A purge
checks the link hop by hop only in routes that contain its far end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ip.packet import IpPacket
from repro.manet.routing_base import RoutingProtocol

RREQ_BASE_BYTES = 16
RREP_BASE_BYTES = 16
RERR_BYTES = 20
HOP_WIRE_BYTES = 4
#: Seconds a node remembers, at the least, a Route Request id or a Route
#: Reply it has handled.  Duplicates of one flood arrive within a few
#: re-broadcast jitters (<= 20 ms per hop, max_flood_hops hops) of each
#: other; a memory of one to two periods bounds the sets in long runs.
SEEN_PERIOD = 10.0


class _RecentSet:
    """The keys added in the current and the previous ``SEEN_PERIOD`` window.

    Two generations: an add that finds a new window moves the current set to
    ``previous`` (or drops both when a whole window passed without adds), so
    a key is remembered for at least one period and membership is two set
    lookups.
    """

    __slots__ = ("_window", "_current", "_previous")

    def __init__(self):
        self._window = 0
        self._current: Set = set()
        self._previous: Set = set()

    def __contains__(self, key) -> bool:
        return key in self._current or key in self._previous

    def __len__(self) -> int:
        return len(self._current) + len(self._previous)

    def add(self, key, now: float) -> None:
        window = int(now // SEEN_PERIOD)
        if window != self._window:
            self._previous = self._current if window == self._window + 1 else set()
            self._current = set()
            self._window = window
        self._current.add(key)


@dataclass(slots=True)
class _RouteCacheEntry:
    route: List[str]  # full path including source and destination
    installed_at: float


class DsrRouting(RoutingProtocol):
    """On-demand source routing with route caches."""

    def __init__(
        self,
        route_lifetime: float = 30.0,
        discovery_timeout: float = 2.0,
        max_discovery_retries: int = 3,
        max_flood_hops: int = 8,
    ):
        super().__init__()
        self.route_lifetime = route_lifetime
        self.discovery_timeout = discovery_timeout
        self.max_discovery_retries = max_discovery_retries
        self.max_flood_hops = max_flood_hops
        self._cache: Dict[str, _RouteCacheEntry] = {}
        self._seen_requests = _RecentSet()  # (origin, serial) of handled RREQs
        self._seen_replies = _RecentSet()  # (request id, route) of forwarded RREPs
        self._request_serial = 0
        self._pending_discovery: Dict[str, int] = {}  # destination -> retries so far
        self._waiting_packets: Dict[str, List[IpPacket]] = {}
        self._rng = None

    # ----------------------------------------------------------------- set-up
    def attach(self, node) -> None:
        super().attach(node)
        self._rng = node.sim.rng(f"dsr.{node.node_id}")
        node.register_broadcast("dsr-rreq", self._on_rreq)
        node.register_broadcast("dsr-rrep", self._on_rrep)
        node.register_broadcast("dsr-rerr", self._on_rerr)

    def start(self) -> None:
        if self.node is None:
            raise RuntimeError("attach the protocol to a node before starting it")

    # ----------------------------------------------------------------- routing
    def next_hop(self, dst: str) -> Optional[str]:
        route = self.route_to(dst)
        if route is None:
            return None
        try:
            index = route.index(self.node.node_id)
        except ValueError:
            return None
        if index + 1 < len(route):
            return route[index + 1]
        return None

    def route_to(self, dst: str) -> Optional[List[str]]:
        """The full cached source route to ``dst`` (including both endpoints)."""
        entry = self._cache.get(dst)
        if entry is None:
            return None
        if self.node.sim.now - entry.installed_at > self.route_lifetime:
            del self._cache[dst]
            return None
        return entry.route

    def on_no_route(self, packet: IpPacket) -> None:
        """Queue the packet and start (or continue) a route discovery.

        Only the packet's *source* initiates discoveries; an intermediate
        node that lost the route simply drops the packet (the source will
        retransmit and rediscover), which prevents discovery storms.
        """
        if packet.dst == self.node.node_id:
            return
        if packet.src != self.node.node_id:
            return
        queue = self._waiting_packets.setdefault(packet.dst, [])
        if len(queue) < 32:
            queue.append(packet)
        self._start_discovery(packet.dst)

    def on_delivery_failure(self, packet: IpPacket, next_hop: str) -> None:
        """Broken link: purge routes using it and report a Route Error."""
        broken = (self.node.node_id, next_hop)
        self._purge_link(broken)
        self.node.broadcast(("rerr", broken), RERR_BYTES, kind="dsr-rerr")
        if packet.src == self.node.node_id:
            self.on_no_route(packet)

    # --------------------------------------------------------------- discovery
    def _start_discovery(self, dst: str) -> None:
        if dst in self._pending_discovery:
            return
        self._pending_discovery[dst] = 0
        self._send_rreq(dst)

    def _send_rreq(self, dst: str) -> None:
        self._request_serial += 1
        request_id = (self.node.node_id, self._request_serial)
        self._seen_requests.add(request_id, self.node.sim.now)
        record = [self.node.node_id]
        size = RREQ_BASE_BYTES + HOP_WIRE_BYTES * len(record)
        self.node.broadcast(("rreq", request_id, dst, record, self.max_flood_hops), size, kind="dsr-rreq")
        self.node.sim.schedule_call(self.discovery_timeout, self._check_discovery, dst)

    def _check_discovery(self, dst: str) -> None:
        if dst not in self._pending_discovery:
            return
        if self.route_to(dst) is not None:
            self._discovery_succeeded(dst)
            return
        retries = self._pending_discovery[dst] + 1
        if retries > self.max_discovery_retries:
            del self._pending_discovery[dst]
            self._waiting_packets.pop(dst, None)
            return
        self._pending_discovery[dst] = retries
        self._send_rreq(dst)

    def _discovery_succeeded(self, dst: str) -> None:
        self._pending_discovery.pop(dst, None)
        route = self.route_to(dst)
        for packet in self._waiting_packets.pop(dst, []):
            packet.source_route = list(route) if route else None
            self.node.send(packet)

    # --------------------------------------------------------------- receiving
    def _on_rreq(self, sender: str, payload, kind: str) -> None:
        _, request_id, dst, record, hops_left = payload
        if request_id in self._seen_requests or self.node.node_id in record:
            return
        now = self.node.sim.now
        self._seen_requests.add(request_id, now)
        record = record + [self.node.node_id]
        # Learn the reverse route back to the request originator for free.
        self._install_route(record[::-1], now)
        if dst == self.node.node_id:
            self._send_rrep(record, request_id)
            return
        cached = self.route_to(dst)
        if cached is not None and self.node.node_id in cached:
            index = cached.index(self.node.node_id)
            full_route = record + cached[index + 1:]
            self._send_rrep(full_route, request_id)
            return
        if hops_left <= 1:
            return
        size = RREQ_BASE_BYTES + HOP_WIRE_BYTES * len(record)
        # Random re-broadcast jitter keeps neighbouring forwarders from
        # flooding the same request at the exact same instant.
        delay = self._rng.uniform(0.002, 0.020)
        payload = ("rreq", request_id, dst, record, hops_left - 1)
        self.node.sim.schedule_call(delay, self.node.broadcast, payload, size, "dsr-rreq")

    def _send_rrep(self, route: List[str], request_id) -> None:
        """Send a Route Reply carrying ``route`` back towards its first hop."""
        size = RREP_BASE_BYTES + HOP_WIRE_BYTES * len(route)
        delay = self._rng.uniform(0.001, 0.010)
        self.node.sim.schedule_call(delay, self.node.broadcast, ("rrep", list(route), request_id), size, "dsr-rrep")

    def _on_rrep(self, sender: str, payload, kind: str) -> None:
        _, route, _request_id = payload
        if self.node.node_id not in route:
            return
        # Forward each distinct reply at most once, otherwise neighbouring
        # nodes on the route bounce the same reply back and forth forever.
        reply_key = (_request_id, tuple(route))
        if reply_key in self._seen_replies:
            return
        now = self.node.sim.now
        self._seen_replies.add(reply_key, now)
        index = route.index(self.node.node_id)
        # Cache the downstream part of the route (towards the destination).
        self._install_route(route[index:], now)
        if index == 0:
            # We originated the discovery.
            destination = route[-1]
            if destination in self._pending_discovery:
                self._discovery_succeeded(destination)
        else:
            # Propagate the reply towards the originator (previous hop in the record).
            self._send_rrep(route, _request_id)

    def _on_rerr(self, sender: str, payload, kind: str) -> None:
        self._purge_link(payload[1])

    def _purge_link(self, broken: Tuple[str, str]) -> None:
        """Drop every cached route that uses the link ``broken`` = (hop_a, hop_b)."""
        hop_b = broken[1]
        # The membership test runs at C speed and skips most routes: a route
        # without the link's far end cannot use the link.  (Every cached
        # route starts at this node, so the near end of a local failure
        # would skip nothing.)
        stale = [
            destination
            for destination, entry in self._cache.items()
            if hop_b in entry.route and broken in zip(entry.route, entry.route[1:])
        ]
        for destination in stale:
            del self._cache[destination]

    # ----------------------------------------------------------------- helpers
    def _install_route(self, route: List[str], now: float) -> None:
        """Cache ``route`` (a fresh list the cache then owns) if it is new or shorter."""
        if len(route) < 2 or route[0] != self.node.node_id:
            return
        destination = route[-1]
        current = self._cache.get(destination)
        if current is None or len(route) < len(current.route):
            self._cache[destination] = _RouteCacheEntry(route=route, installed_at=now)
        else:
            current.installed_at = now

    def source_route_for(self, dst: str) -> Optional[List[str]]:
        """Source route to embed in outgoing packets (Ekta data path)."""
        return self.route_to(dst)

    # -------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        total = 64
        for entry in self._cache.values():
            total += HOP_WIRE_BYTES * len(entry.route) + 16
        total += 8 * len(self._seen_requests)
        return total
