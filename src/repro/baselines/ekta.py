"""Ekta: a DHT substrate for MANET integrated with DSR (Pucha et al.).

Structure reproduced from the paper's description (Section VI-B):

* every peer owns a position in a Pastry-style key space;
* peers **publish** the objects (files of the collection) they hold to the
  key's root node, and **look up** providers through DHT messages — both
  kinds of messages are unicast over **DSR** routes and therefore pay the
  cost of on-demand route discovery and maintenance;
* once providers are known, pieces are fetched with **UDP** request/response
  exchanges (one request per piece, per receiver), retransmitted by the
  application on timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ip.netstack import IpNode
from repro.ip.udp import UdpService
from repro.manet.dsr import DsrRouting
from repro.simulation import PeriodicTimer, Simulator
from repro.wireless.medium import WirelessMedium
from repro.baselines.base_peer import IpSwarmPeer, SwarmDescriptor
from repro.baselines.dht import DhtKeySpace, DhtRegistry

DHT_PORT = 4000
DATA_PORT = 4001
DHT_MESSAGE_BYTES = 48
PIECE_REQUEST_BYTES = 32


@dataclass
class _LookupState:
    file_index: int
    sent_at: float


class EktaPeer(IpSwarmPeer):
    """One Ekta peer: DHT publish/lookup over DSR + UDP piece transfers."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        descriptor: SwarmDescriptor,
        ip_node: IpNode,
        routing: DsrRouting,
        udp: UdpService,
        keyspace: DhtKeySpace,
        seed_all: bool = False,
        request_timeout: float = 2.0,
        lookup_timeout: float = 4.0,
        publish_interval: float = 5.0,
        pipeline_size: int = 4,
    ):
        super().__init__(sim, node_id, descriptor, seed_all=seed_all)
        self.ip_node = ip_node
        self.routing = routing
        self.udp = udp
        self.keyspace = keyspace
        self.registry = DhtRegistry()
        self.request_timeout = request_timeout
        self.lookup_timeout = lookup_timeout
        self.pipeline_size = pipeline_size
        self._rng = sim.rng(f"ekta.{node_id}")
        self._providers: Dict[int, List[str]] = {}  # file index -> provider ids
        self._pending_lookups: Dict[int, _LookupState] = {}
        self._outstanding: Dict[int, Tuple[str, float]] = {}  # piece -> (provider, sent_at)
        self._published_files: set = set()
        self._publish_timer = PeriodicTimer(sim, self._publish_held_files, period=publish_interval, jitter=1.0, rng=self._rng)
        self._engine_timer = PeriodicTimer(sim, self._engine_tick, period=0.5, jitter=0.1, rng=self._rng)

        udp.bind(DHT_PORT, self._on_dht_message)
        udp.bind(DATA_PORT, self._on_data_message)

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        self.routing.start()
        if self.start_time is None:
            self.start_time = self.sim.now
        self._publish_timer.start(initial_delay=self._rng.uniform(0.0, 2.0))
        self._engine_timer.start(initial_delay=self._rng.uniform(0.5, 1.5))
        self.load.timers_armed += 2

    def stop(self) -> None:
        self._publish_timer.stop()
        self._engine_timer.stop()

    # ------------------------------------------------------------------- keys
    def _file_key(self, file_index: int) -> str:
        return f"{self.descriptor.collection_id}/file/{file_index}"

    def _held_files(self) -> List[int]:
        """Files this peer can serve (at least a quarter of the pieces held).

        Publishing partially-held files mirrors BitTorrent-style behaviour
        (peers serve while they download); requiring at least a quarter of
        the file keeps the provider lists useful, and requesters that hit a
        provider without the piece get an immediate "miss" answer.
        """
        held = []
        per_file = self.descriptor.pieces_per_file
        total = self.descriptor.total_pieces
        bits = self.bitmap.as_int()
        window = (1 << per_file) - 1
        for file_index in range(self.descriptor.files):
            start = file_index * per_file
            if start >= total:
                break
            have = ((bits >> start) & window).bit_count()
            if have * 4 >= min(per_file, total - start):
                held.append(file_index)
        return held

    # ---------------------------------------------------------------- publish
    def _publish_held_files(self) -> None:
        self.load.activation()
        for file_index in self._held_files():
            key = self._file_key(file_index)
            root = self.keyspace.root_of(key)
            if root is None:
                continue
            if root == self.node_id:
                self.registry.publish(key, self.node_id)
                self._published_files.add(file_index)
                continue
            self.load.messages_sent += 1
            self.udp.send(
                root,
                DHT_PORT,
                {"type": "publish", "key": key, "provider": self.node_id},
                DHT_MESSAGE_BYTES,
                kind="dht-publish",
            )
            self._published_files.add(file_index)

    # ----------------------------------------------------------------- lookup
    def _lookup_file(self, file_index: int) -> None:
        key = self._file_key(file_index)
        root = self.keyspace.root_of(key)
        if root is None:
            return
        if root == self.node_id:
            providers = self.registry.providers(key)
            if providers:
                self._providers[file_index] = providers
            return
        self._pending_lookups[file_index] = _LookupState(file_index=file_index, sent_at=self.sim.now)
        self.load.messages_sent += 1
        self.udp.send(
            root,
            DHT_PORT,
            {"type": "lookup", "key": key, "file": file_index, "from": self.node_id},
            DHT_MESSAGE_BYTES,
            kind="dht-lookup",
        )

    def _on_dht_message(self, src: str, payload, port: int) -> None:
        self.load.activation()
        self.load.messages_received += 1
        if not isinstance(payload, dict):
            return
        message_type = payload.get("type")
        if message_type == "publish":
            self.registry.publish(payload["key"], payload["provider"])
        elif message_type == "lookup":
            providers = self.registry.providers(payload["key"])
            self.load.messages_sent += 1
            self.udp.send(
                payload.get("from", src),
                DHT_PORT,
                {"type": "providers", "file": payload["file"], "providers": providers},
                DHT_MESSAGE_BYTES + 16 * max(len(providers), 1),
                kind="dht-response",
            )
        elif message_type == "providers":
            file_index = payload["file"]
            self._pending_lookups.pop(file_index, None)
            providers = [p for p in payload.get("providers", []) if p != self.node_id]
            if providers:
                self._providers[file_index] = providers

    # ----------------------------------------------------------------- engine
    def _engine_tick(self) -> None:
        self.load.activation()
        if self.is_complete or not self.interested:
            return
        now = self.sim.now
        for piece in list(self._outstanding):
            provider, sent_at = self._outstanding[piece]
            if now - sent_at > self.request_timeout:
                del self._outstanding[piece]
                self.load.retransmissions += 1
                # A provider that keeps timing out may be unreachable: drop it
                # so the next attempt tries someone else (or a fresh lookup).
                file_index = self.descriptor.file_of_piece(piece)
                providers = self._providers.get(file_index, [])
                if provider in providers and len(providers) > 1:
                    providers.remove(provider)

        for file_index in list(self._pending_lookups):
            if now - self._pending_lookups[file_index].sent_at > self.lookup_timeout:
                del self._pending_lookups[file_index]

        # Walk the missing, unrequested pieces (a snapshot, as one int) file
        # by file in ascending order.  Everything but the pipeline depends
        # only on the piece's file, so each file's state is settled once.
        missing = self.bitmap.missing_mask(self._outstanding)
        per_file = self.descriptor.pieces_per_file
        while missing:
            if len(self._outstanding) >= self.pipeline_size:
                return
            file_index = ((missing & -missing).bit_length() - 1) // per_file
            end = (file_index + 1) * per_file
            pieces = missing & ((1 << end) - 1)
            missing ^= pieces
            providers = self._providers.get(file_index)
            if not providers:
                # The file's first missing piece asks the DHT; the rest wait.
                # Only a file whose root is this peer gains providers at once
                # (a repeated lookup with none changes nothing).
                if file_index not in self._pending_lookups:
                    self._lookup_file(file_index)
                providers = self._providers.get(file_index)
                if not providers:
                    continue
                pieces &= pieces - 1
                if not pieces:
                    continue
            # Periodically refresh the provider list so late joiners are found.
            # The file's first request still picks from the list read before
            # the refresh; each later one reads it anew.
            if file_index not in self._pending_lookups and self._rng.random() < 0.2:
                self._lookup_file(file_index)
            while pieces:
                if len(self._outstanding) >= self.pipeline_size:
                    return
                low = pieces & -pieces
                pieces ^= low
                self._request_piece(low.bit_length() - 1, self._pick_provider(providers))
                providers = self._providers[file_index]

    def _pick_provider(self, providers: List[str]) -> str:
        """Pick a provider, preferring those reachable over short routes.

        Pastry's proximity-aware routing gives real Ekta a similar bias; here
        it simply avoids repeatedly requesting pieces over long, fragile
        multi-hop paths when a one-hop provider exists.
        """
        if len(providers) == 1:
            return providers[0]
        direct = set(self.ip_node.neighbours())
        nearby = [provider for provider in providers if provider in direct]
        if nearby:
            return self._rng.choice(nearby)

        def route_length(provider: str) -> int:
            route = self.routing.route_to(provider)
            return len(route) if route is not None else 99

        best = min(route_length(provider) for provider in providers)
        candidates = [provider for provider in providers if route_length(provider) == best]
        return self._rng.choice(candidates)

    def _request_piece(self, piece: int, provider: str) -> None:
        self._outstanding[piece] = (provider, self.sim.now)
        self.load.messages_sent += 1
        self.udp.send(
            provider,
            DATA_PORT,
            {"type": "request", "piece": piece, "from": self.node_id},
            PIECE_REQUEST_BYTES,
            kind="ekta-request",
        )

    def _on_data_message(self, src: str, payload, port: int) -> None:
        self.load.activation()
        self.load.messages_received += 1
        if not isinstance(payload, dict):
            return
        if payload.get("type") == "request":
            piece = payload["piece"]
            requester = payload.get("from", src)
            if self.has_piece(piece):
                self.load.messages_sent += 1
                self.udp.send(
                    requester,
                    DATA_PORT,
                    {"type": "piece", "piece": piece, "from": self.node_id},
                    self.descriptor.piece_size,
                    kind="ekta-piece",
                )
            else:
                # Tell the requester we cannot help so it retries elsewhere
                # instead of waiting for a timeout.
                self.load.messages_sent += 1
                self.udp.send(
                    requester,
                    DATA_PORT,
                    {"type": "miss", "piece": piece, "from": self.node_id},
                    PIECE_REQUEST_BYTES,
                    kind="ekta-miss",
                )
        elif payload.get("type") == "piece":
            piece = payload["piece"]
            sender = payload.get("from", src)
            self._outstanding.pop(piece, None)
            self.add_piece(piece)
            # Whoever served the piece evidently holds (part of) that file:
            # remember them as a provider.
            file_index = self.descriptor.file_of_piece(piece)
            providers = self._providers.setdefault(file_index, [])
            if sender not in providers:
                providers.append(sender)
        elif payload.get("type") == "miss":
            piece = payload["piece"]
            sender = payload.get("from", src)
            self._outstanding.pop(piece, None)
            file_index = self.descriptor.file_of_piece(piece)
            providers = self._providers.get(file_index, [])
            if sender in providers and len(providers) > 1:
                providers.remove(sender)

    # ------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        total = self.ip_node.state_size_bytes + self.bitmap.wire_size
        total += self.registry.state_size_bytes
        total += 16 * sum(len(providers) for providers in self._providers.values())
        return total


def build_ekta_peer(
    sim: Simulator,
    medium: WirelessMedium,
    node_id: str,
    descriptor: SwarmDescriptor,
    keyspace: DhtKeySpace,
    seed_all: bool = False,
    forwarder_only: bool = False,
    wifi_range: Optional[float] = None,
) -> Optional[EktaPeer]:
    """Assemble an Ekta node (or, with ``forwarder_only``, a DSR-only forwarder)."""
    ip_node = IpNode(sim, medium, node_id, app_protocol="ekta", wifi_range=wifi_range)
    routing = DsrRouting()
    ip_node.attach_routing(routing)
    if forwarder_only:
        routing.start()
        return None
    udp = UdpService(ip_node, app_protocol="ekta")
    keyspace.add_member(node_id)
    return EktaPeer(
        sim=sim,
        node_id=node_id,
        descriptor=descriptor,
        ip_node=ip_node,
        routing=routing,
        udp=udp,
        keyspace=keyspace,
        seed_all=seed_all,
    )
