"""Bithoc: BitTorrent for wireless ad-hoc networks (Krifa et al., Sbai et al.).

Structure reproduced from the paper's description (Section VI-B):

* peers perform **periodic scoped flooding of HELLO messages** (TTL = 2) to
  discover others and the pieces they have;
* discovered peers are split into **close** (at most two hops away) and
  **far** (further) neighbours;
* peers follow a **Rarest-Piece-First** policy towards close neighbours and
  fetch pieces unavailable nearby from far neighbours;
* **DSDV** provides routes and a **TCP-like reliable transport** carries the
  piece transfers, so routing updates, HELLO floods, TCP acknowledgements
  and retransmissions all count towards Bithoc's overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bitmap import Bitmap
from repro.ip.netstack import IpNode
from repro.ip.tcp import ReliableTransport
from repro.manet.dsdv import DsdvRouting
from repro.simulation import PeriodicTimer, Simulator
from repro.wireless.medium import WirelessMedium
from repro.baselines.base_peer import IpSwarmPeer, SwarmDescriptor

HELLO_BASE_BYTES = 24
PIECE_REQUEST_BYTES = 32
PIECE_PORT = 6881
CLOSE_HOP_LIMIT = 2


@dataclass
class _NeighborInfo:
    bitmap: Bitmap
    hops: int
    last_heard: float


class BithocPeer(IpSwarmPeer):
    """One Bithoc peer: HELLO flooding + RPF + TCP piece transfers over DSDV."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        descriptor: SwarmDescriptor,
        ip_node: IpNode,
        routing: DsdvRouting,
        transport: ReliableTransport,
        seed_all: bool = False,
        hello_interval: float = 3.0,
        neighbor_timeout: float = 10.0,
        request_timeout: float = 4.0,
        pipeline_size: int = 4,
    ):
        super().__init__(sim, node_id, descriptor, seed_all=seed_all)
        self.ip_node = ip_node
        self.routing = routing
        self.transport = transport
        self.neighbor_timeout = neighbor_timeout
        self.request_timeout = request_timeout
        self.pipeline_size = pipeline_size
        self._rng = sim.rng(f"bithoc.{node_id}")
        self._neighbors: Dict[str, _NeighborInfo] = {}
        self._outstanding: Dict[int, Tuple[str, float]] = {}  # piece -> (peer, sent_at)
        self._seen_hellos: set = set()
        self._hello_serial = 0
        self._hello_timer = PeriodicTimer(sim, self._send_hello, period=hello_interval, jitter=0.3, rng=self._rng)
        self._engine_timer = PeriodicTimer(sim, self._engine_tick, period=0.5, jitter=0.1, rng=self._rng)

        ip_node.register_broadcast("bithoc-hello", self._on_hello)
        transport.bind(PIECE_PORT, self._on_transport_message)

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        """Start routing, HELLO flooding and the download engine."""
        self.routing.start()
        if self.start_time is None:
            self.start_time = self.sim.now
        self._hello_timer.start(initial_delay=self._rng.uniform(0.0, 1.0))
        self._engine_timer.start(initial_delay=self._rng.uniform(0.5, 1.5))
        self.load.timers_armed += 2

    def stop(self) -> None:
        self._hello_timer.stop()
        self._engine_timer.stop()
        self.routing.stop()

    # ----------------------------------------------------------------- HELLOs
    def _send_hello(self) -> None:
        self.load.activation()
        self._hello_serial += 1
        payload = {
            "origin": self.node_id,
            "serial": self._hello_serial,
            "bitmap": self.bitmap.to_bytes().hex(),
            "size": self.bitmap.size,
            "ttl": CLOSE_HOP_LIMIT,
            "hops": 0,
        }
        size = HELLO_BASE_BYTES + self.bitmap.wire_size
        self.load.messages_sent += 1
        self.ip_node.broadcast(payload, size, kind="bithoc-hello")

    def _on_hello(self, sender: str, payload, kind: str) -> None:
        self.load.activation()
        self.load.messages_received += 1
        origin = payload["origin"]
        if origin == self.node_id:
            return
        key = (origin, payload["serial"])
        hops = payload["hops"] + 1
        bitmap = Bitmap.from_bytes(payload["size"], bytes.fromhex(payload["bitmap"]))
        info = self._neighbors.get(origin)
        if info is None or hops <= info.hops or self.sim.now - info.last_heard > self.neighbor_timeout:
            self._neighbors[origin] = _NeighborInfo(bitmap=bitmap, hops=hops, last_heard=self.sim.now)
        else:
            info.bitmap = bitmap
            info.last_heard = self.sim.now
        if key in self._seen_hellos:
            return
        self._seen_hellos.add(key)
        # Scoped flooding: re-broadcast (with jitter) while the TTL allows it.
        if payload["ttl"] > 1:
            forwarded = dict(payload)
            forwarded["ttl"] = payload["ttl"] - 1
            forwarded["hops"] = hops
            size = HELLO_BASE_BYTES + bitmap.wire_size
            self.sim.schedule_call(self._rng.uniform(0.002, 0.030), self._reflood, forwarded, size)

    def _reflood(self, payload: dict, size: int) -> None:
        self.load.messages_sent += 1
        self.ip_node.broadcast(payload, size, kind="bithoc-hello")

    # ----------------------------------------------------------------- engine
    def close_neighbors(self) -> Dict[str, Bitmap]:
        """Bitmaps of neighbours at most two hops away, seen recently."""
        cutoff = self.sim.now - self.neighbor_timeout
        return {
            peer: info.bitmap
            for peer, info in self._neighbors.items()
            if info.hops <= CLOSE_HOP_LIMIT and info.last_heard >= cutoff
        }

    def far_peers(self) -> List[str]:
        """Swarm members that are not currently close neighbours."""
        close = set(self.close_neighbors())
        return [member for member in self.swarm_members if member not in close]

    def _engine_tick(self) -> None:
        self.load.activation()
        if self.is_complete or not self.interested:
            return
        now = self.sim.now
        # Expire stale outstanding requests so the pieces can be re-requested.
        for piece in list(self._outstanding):
            peer, sent_at = self._outstanding[piece]
            if now - sent_at > self.request_timeout:
                del self._outstanding[piece]
                self.load.retransmissions += 1
        close = self.close_neighbors()
        while len(self._outstanding) < self.pipeline_size:
            remaining = self.bitmap.missing_mask(self._outstanding)
            piece = Bitmap.rarest(remaining, close.values())
            if piece is not None:
                holders = self.holders_of(piece, close)
                target = self._rng.choice(holders)
                self._request_piece(piece, target)
                continue
            # Nothing useful nearby: try a far peer for a piece nobody close has.
            far = self.far_peers()
            if not far or not remaining:
                break
            target = self._rng.choice(far)
            self._request_piece(Bitmap.first(remaining), target)

    def _request_piece(self, piece: int, target: str) -> None:
        self._outstanding[piece] = (target, self.sim.now)
        self.load.messages_sent += 1
        self.transport.send_message(
            target,
            PIECE_PORT,
            {"type": "request", "piece": piece, "from": self.node_id},
            PIECE_REQUEST_BYTES,
            on_failed=lambda: self._outstanding.pop(piece, None),
        )

    # -------------------------------------------------------------- transport
    def _on_transport_message(self, src: str, payload) -> None:
        self.load.activation()
        self.load.messages_received += 1
        if not isinstance(payload, dict):
            return
        if payload.get("type") == "request":
            piece = payload["piece"]
            requester = payload.get("from", src)
            if self.has_piece(piece):
                self.transport.send_message(
                    requester,
                    PIECE_PORT,
                    {"type": "piece", "piece": piece, "from": self.node_id},
                    self.descriptor.piece_size,
                )
        elif payload.get("type") == "piece":
            piece = payload["piece"]
            self._outstanding.pop(piece, None)
            self.add_piece(piece)

    # ------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        """Protocol state footprint (routing table + neighbour bitmaps + bitmap)."""
        total = self.ip_node.state_size_bytes + self.bitmap.wire_size
        for info in self._neighbors.values():
            total += info.bitmap.wire_size + 24
        return total


def build_bithoc_peer(
    sim: Simulator,
    medium: WirelessMedium,
    node_id: str,
    descriptor: SwarmDescriptor,
    seed_all: bool = False,
    forwarder_only: bool = False,
    wifi_range: Optional[float] = None,
) -> Optional[BithocPeer]:
    """Assemble a Bithoc node.

    With ``forwarder_only=True`` only the IP stack and DSDV are installed —
    the node participates in routing and forwarding but not in the swarm
    (the paper's 20 forwarding nodes).  In that case ``None`` is returned in
    place of a peer, and the caller keeps the :class:`IpNode` reachable
    through the medium's radio registry.
    """
    ip_node = IpNode(sim, medium, node_id, app_protocol="bithoc", wifi_range=wifi_range)
    routing = DsdvRouting()
    ip_node.attach_routing(routing)
    if forwarder_only:
        routing.start()
        return None
    transport = ReliableTransport(ip_node, sim, app_protocol="bithoc")
    return BithocPeer(
        sim=sim,
        node_id=node_id,
        descriptor=descriptor,
        ip_node=ip_node,
        routing=routing,
        transport=transport,
        seed_all=seed_all,
    )
