"""The DAPES peer application.

A :class:`DapesPeer` implements the protocol of Section IV on top of a local
NDN forwarder.  Section IV builds DAPES from four parts, and the peer routes
every event through one table keyed by the kind :meth:`DapesNamespace.classify`
gives the packet's name:

* ``discovery`` — :class:`Discovery` (Section IV-B, this module): periodic
  discovery Interests with an adaptive period, the neighbour table and the
  offer list that discovery Data carries.
* ``metadata`` — :class:`~repro.core.metadata.SecureInit` (Section IV-C):
  retrieval of the signed, segmented collection metadata, authenticated
  against the peer's trust anchors.
* ``bitmap`` — :class:`~repro.core.advertisement.Advertising` (Sections IV-D
  and IV-F): bitmap Interests and Data, prioritised and PEBA-scheduled.
* ``collection-data`` — :class:`~repro.core.rpf.Fetching` (Section IV-E): a
  pipeline of Interests for the packets RPF picks, with random transmission
  timers, retransmissions and opportunistic use of overheard packets.

Each part answers four events — ``overheard`` (an Interest heard on the
air), ``interest`` (that Interest again, once the forwarder hands it to the
application; ``overheard`` has always run first), ``data`` (Data, once per
reception, solicited or overheard) and ``expired`` (one of our PIT entries
timed out) — and owns its state and timers.  The peer keeps the sessions,
the public API, housekeeping and the one responder the parts share.

The same class also covers the producer role (:meth:`publish_collection`),
repositories (a peer with ``interested_in_all=True``) and intermediate DAPES
nodes (a peer that never joins a collection but still builds knowledge and
forwards for others through :class:`~repro.core.intermediate.DapesForwardingStrategy`).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.crypto.keys import KeyPair
from repro.crypto.signing import sign
from repro.crypto.trust import TrustAnchorStore
from repro.ndn.face import AppFace
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.simulation import PeriodicTimer, Simulator
from repro.core.advertisement import Advertising
from repro.core.collection import FileCollection, PacketStore
from repro.core.config import (
    DISCOVERY_PERIOD_ACTIVE,
    DISCOVERY_PERIOD_IDLE,
    DISCOVERY_RECENT_WINDOW,
    NEIGHBOR_TIMEOUT,
    TRANSMISSION_WINDOW,
    DapesConfig,
)
from repro.core.knowledge import NeighborKnowledge
from repro.core.metadata import CollectionMetadata, SecureInit, metadata_segments
from repro.core.namespace import DapesNamespace
from repro.core.rpf import FetchStrategy, Fetching, make_fetch_strategy
from repro.core.stats import NodeLoadStats

CompletionCallback = Callable[["DapesPeer", str, float], None]


@dataclass
class CollectionSession:
    """A peer's state for one file collection."""

    collection_id: str
    interested: bool = True
    producer: bool = False
    metadata: Optional[CollectionMetadata] = None
    store: Optional[PacketStore] = None
    metadata_name: Optional[Name] = None
    metadata_segments: Dict[int, Data] = field(default_factory=dict)
    metadata_chunks: Dict[int, bytes] = field(default_factory=dict)
    fetch: Optional[FetchStrategy] = None
    outstanding: Dict[int, int] = field(default_factory=dict)  # packet index -> retries
    pending_bitmap_targets: List[str] = field(default_factory=list)
    bitmaps_requested: Set[str] = field(default_factory=set)
    bitmaps_received: int = 0
    bitmap_serial: int = 0
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    distrusted: bool = False
    last_bitmap_response: Dict[str, float] = field(default_factory=dict)

    @property
    def is_complete(self) -> bool:
        return self.store is not None and self.store.is_complete()

    @property
    def downloading(self) -> bool:
        """Joined, metadata in hand and still missing packets."""
        return self.interested and self.metadata is not None and not self.is_complete


class DapesPeer:
    """One DAPES application instance, bound to a node's forwarder."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        forwarder: Forwarder,
        app_face: AppFace,
        config: Optional[DapesConfig] = None,
        key: Optional[KeyPair] = None,
        trust: Optional[TrustAnchorStore] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.forwarder = forwarder
        self.app_face = app_face
        self.config = config if config is not None else DapesConfig()
        self.key = key if key is not None else KeyPair.generate(node_id, seed=node_id.encode())
        self.trust = trust if trust is not None else TrustAnchorStore()
        self.load = NodeLoadStats()
        self.knowledge = NeighborKnowledge()
        self.rng = sim.rng(f"dapes.peer.{node_id}")
        self.sessions: Dict[str, CollectionSession] = {}
        self.join_targets: Set[str] = set()
        self.started = False
        self._pending_responses: Dict[Name, object] = {}
        self.discovery = Discovery(self)
        self.init = SecureInit(self)
        self.advertising = Advertising(self)
        self.fetching = Fetching(self)
        self._parts = {
            "discovery": self.discovery,
            "metadata": self.init,
            "bitmap": self.advertising,
            "collection-data": self.fetching,
        }
        app_face.on_interest = self._on_app_interest
        app_face.on_data = self.on_data
        self._housekeeping_timer = PeriodicTimer(sim, self._housekeeping, period=1.0)

    # ------------------------------------------------------------------ setup
    def start(self) -> None:
        """Begin periodic discovery and housekeeping."""
        if self.started:
            return
        self.started = True
        self.discovery.timer.start(initial_delay=self.rng.uniform(0.0, 1.0))
        self._housekeeping_timer.start(initial_delay=1.0)
        self.load.timers_armed += 2

    def stop(self) -> None:
        """Stop timers (the peer keeps answering Interests already in flight)."""
        self.discovery.timer.stop()
        self._housekeeping_timer.stop()
        self.started = False

    def kill(self) -> None:
        """Abrupt departure: stop and cancel every pending response.

        Unlike :meth:`stop` (graceful — queued answers still drain), a
        killed peer transmits nothing further; its radio is about to be
        detached mid-transfer by the churn manager.
        """
        self.stop()
        for handle in self._pending_responses.values():
            self.sim.cancel(handle)
        self._pending_responses.clear()

    def on_collection_complete(self, callback: CompletionCallback) -> None:
        """Register a callback fired when a collection download completes."""
        self.fetching.completion_callbacks.append(callback)

    # -------------------------------------------------------------- producers
    def publish_collection(
        self, collection: FileCollection, metadata_format: Optional[str] = None
    ) -> CollectionMetadata:
        """Create, sign and start serving a file collection (producer role)."""
        metadata = collection.build_metadata(metadata_format or self.config.metadata_format)
        session = self.open_session(metadata.collection)
        session.producer = True
        session.interested = True
        session.metadata_name = metadata.name()
        self.adopt_metadata(session, metadata)
        session.store.mark_all_present(collection, self.key)
        session.completion_time = self.sim.now
        return metadata

    def adopt_metadata(self, session: CollectionSession, metadata: CollectionMetadata) -> None:
        """Give ``session`` its metadata, an empty store, an RPF strategy and segments to serve."""
        config = self.config
        session.metadata = metadata
        session.store = PacketStore(metadata)
        session.fetch = make_fetch_strategy(config.rpf_strategy, random_start=config.random_start, rng=self.rng)
        session.metadata_segments = metadata_segments(metadata, self.key)

    # ------------------------------------------------------------ downloaders
    def join(self, collection_id: str) -> None:
        """Declare interest in downloading a collection (by its name component)."""
        collection_id = Name(collection_id)[0]
        self.join_targets.add(collection_id)
        session = self.open_session(collection_id)
        session.interested = True
        if session.start_time is None:
            session.start_time = self.sim.now

    def download_time(self, collection_id: str) -> Optional[float]:
        """Seconds from joining to completion, or ``None`` if not complete."""
        session = self.sessions.get(Name(collection_id)[0])
        if session is None or session.completion_time is None:
            return None
        start = session.start_time if session.start_time is not None else 0.0
        return session.completion_time - start

    def progress(self, collection_id: str) -> float:
        session = self.sessions.get(Name(collection_id)[0])
        if session is None or session.store is None:
            return 0.0
        return session.store.progress()

    def open_session(self, collection_id: str) -> CollectionSession:
        """The session for ``collection_id``, created on first use."""
        collection_id = Name(collection_id)[0]
        session = self.sessions.get(collection_id)
        if session is None:
            session = self.sessions[collection_id] = CollectionSession(collection_id=collection_id)
        return session

    # ---------------------------------------------------- strategy interface
    def has_packet(self, collection_id: str, name) -> bool:
        """Whether this peer holds the packet ``name`` of ``collection_id``."""
        session = self.sessions.get(collection_id)
        if session is None or session.store is None or session.metadata is None:
            return False
        index = session.metadata.packet_index_of(name)
        return index is not None and session.store.has(index)

    def packet_index(self, collection_id: str, name) -> Optional[int]:
        session = self.sessions.get(collection_id)
        if session is None or session.metadata is None:
            return None
        return session.metadata.packet_index_of(name)

    def has_metadata(self, collection_id: str) -> bool:
        session = self.sessions.get(collection_id)
        return session is not None and session.metadata is not None

    # ------------------------------------------------------------ entry points
    def _on_app_interest(self, interest: Interest) -> None:
        """An Interest reached the application (we may be able to answer it)."""
        self.load.activation()
        self.load.messages_received += 1
        self._parts[DapesNamespace.classify(interest.name)].interest(interest)

    def observe_interest(self, interest: Interest) -> None:
        """Called by the forwarding strategy for every Interest heard on the air."""
        self._parts[DapesNamespace.classify(interest.name)].overheard(interest)

    def on_data(self, data: Data) -> None:
        """One Data reception: heard on the air (from the strategy) or a CS answer (app face)."""
        self.cancel_response(data.name)
        self.load.activation()
        self.load.messages_received += 1
        self._parts[DapesNamespace.classify(data.name)].data(data)

    def on_pit_expired(self, entry) -> None:
        """Called when a locally created PIT entry expired unsatisfied."""
        self._parts[DapesNamespace.classify(entry.name)].expired(entry.name)

    # ------------------------------------------------------------- responding
    def signed_response(self, name: Name, content: bytes) -> Data:
        """A short-lived signed answer (discovery and bitmap responses)."""
        signature = sign(str(name), content, self.key)
        return Data(name=name, content=content, signature=signature, freshness_period=1.0)

    def respond(self, data: Data, delay: Optional[float] = None) -> None:
        """Send ``data`` after ``delay``, unless the same name is overheard first.

        The default delay is a uniform draw from the transmission window.
        """
        if delay is None:
            delay = self.rng.uniform(0.0, TRANSMISSION_WINDOW)

        def _send() -> None:
            self._pending_responses.pop(data.name, None)
            self.load.activation()
            self.load.messages_sent += 1
            self.app_face.put_data(data)

        self._pending_responses[data.name] = self.sim.schedule(max(delay, 0.0), _send)
        self.load.timers_armed += 1

    def cancel_response(self, name: Name) -> None:
        handle = self._pending_responses.pop(name, None)
        if handle is not None:
            self.sim.cancel(handle)

    def express(self, interest: Interest) -> None:
        self.load.messages_sent += 1
        self.app_face.express_interest(interest)

    # ----------------------------------------------------------------- upkeep
    def reannounce(self) -> None:
        """Recovery nudge: a partition healed or a stall resumed nearby.

        Sends an immediate discovery Interest (instead of waiting for the
        periodic timer) and kicks every incomplete session's pipeline so
        re-discovered neighbours are put to work right away.
        """
        if not self.started:
            return
        self.discovery.send()
        for session in self.sessions.values():
            if session.downloading:
                self.fetching.fill(session)

    def _housekeeping(self) -> None:
        self.load.activation()
        now = self.sim.now
        neighbors = self.discovery.neighbors
        cutoff = now - NEIGHBOR_TIMEOUT
        departed = [peer for peer, heard in neighbors.items() if heard < cutoff]
        for peer in departed:
            self.discovery.forget(peer)
        if departed and not neighbors:
            # Encounter over: per-encounter state expires (Section IV-E/IV-F).
            self.advertising.tracker.reset()
            self.advertising.peba.reset_encounter()
            for session in self.sessions.values():
                session.bitmaps_requested.clear()
                session.bitmaps_received = 0
        self.knowledge.prune(now)
        self.load.record_state_size(self.state_size_bytes)
        # Keep the pipelines moving even if an event was missed.
        for session in self.sessions.values():
            if session.downloading:
                self.fetching.fill(session)
            elif session.interested and session.metadata is None and self.discovery.any_active():
                self.init.request(session)

    @property
    def state_size_bytes(self) -> int:
        """Bytes of protocol state held by this peer (Table I memory proxy)."""
        total = self.forwarder.state_size_bytes
        total += self.knowledge.state_size_bytes
        total += self.advertising.tracker.state_size_bytes
        for session in self.sessions.values():
            if session.store is not None:
                total += session.store.state_size_bytes
            if session.fetch is not None:
                total += session.fetch.state_size_bytes
        return total


class Discovery:
    """The peer's discovery (Section IV-B): neighbours and collection offers.

    Discovery Interests go out on a period that shortens while neighbours
    were heard recently; the Data answering one lists the metadata names of
    the collections the responder can offer.  Every packet heard from a
    neighbour touches the neighbour table, and a new neighbour starts a
    bitmap exchange for every download in progress.
    """

    def __init__(self, peer: DapesPeer):
        self.peer, self.sim, self.config, self.load = peer, peer.sim, peer.config, peer.load
        self.knowledge, self.sessions, self.node_id = peer.knowledge, peer.sessions, peer.node_id
        self.neighbors: Dict[str, float] = {}  # neighbour -> last heard
        self._last_heard = -1e9
        self._serial = 0
        self._offers: Optional[tuple] = None  # (announceable sessions, encoded offer list)
        self.timer = PeriodicTimer(peer.sim, self.send, period=self.period, jitter=0.2, rng=peer.rng)

    # ----------------------------------------------------------------- events
    def interest(self, interest: Interest) -> None:
        """A discovery Interest: offer our collections (:meth:`overheard` noted the sender)."""
        if DapesNamespace.discovery_sender(interest.name) != self.node_id:
            self._offer(interest)

    def overheard(self, interest: Interest) -> None:
        self.touch(DapesNamespace.discovery_sender(interest.name))

    def data(self, data: Data) -> None:
        """Discovery Data: learn the sender's collections and start fetching them."""
        summary = _parse_discovery_payload(data.content)
        if summary is None or summary[0] == self.node_id:
            return
        peer_id, collections = summary
        self.touch(peer_id)
        peer, now = self.peer, self.sim.now
        for collection_id, metadata_name in collections:
            if not collection_id or not metadata_name:
                continue
            self.knowledge.observe_interest(peer_id, collection_id, now)
            wanted = self.config.interested_in_all or collection_id in peer.join_targets
            session = self.sessions.get(collection_id)
            if session is None:
                if not wanted:
                    continue
                session = peer.open_session(collection_id)
                session.start_time = now
            if session.metadata is None:
                session.metadata_name = Name(metadata_name)
                if wanted or session.interested:
                    peer.init.request(session)
            elif session.interested and not session.is_complete:
                peer.advertising.maybe_request(session, peer_id)

    def expired(self, name: Name) -> None:
        """Discovery Interests are not retried: the timer sends the next one."""

    # ------------------------------------------------------------- discovery
    def period(self) -> float:
        recently = self.sim.now - self._last_heard <= DISCOVERY_RECENT_WINDOW
        return DISCOVERY_PERIOD_ACTIVE if recently else DISCOVERY_PERIOD_IDLE

    def send(self) -> None:
        self.load.activation()
        self._serial += 1
        name = DapesNamespace.discovery_name(self.node_id, self._serial)
        self.peer.express(Interest(name=name, lifetime=1.0))

    def _offer(self, interest: Interest) -> None:
        # The offer list only depends on which sessions are announceable —
        # not on download progress — so the encoded content is cached until
        # that key changes (a new collection, metadata arriving, or a store
        # receiving its first packet).
        key = tuple(
            (session.collection_id, str(session.metadata_name or session.metadata.name()),
             session.metadata.total_packets)
            for session in self.sessions.values()
            if session.metadata is not None and session.store is not None
            and (session.store.bitmap.count() > 0 or session.producer)
        )
        if not key:
            return
        if self._offers is None or self._offers[0] != key:
            offers = [{"id": cid, "metadata": name, "packets": packets} for cid, name, packets in key]
            self._offers = (key, json.dumps({"peer": self.node_id, "collections": offers}).encode("utf-8"))
        self.peer.respond(self.peer.signed_response(interest.name, self._offers[1]))

    # ------------------------------------------------------------- neighbours
    def touch(self, peer_id: str) -> None:
        """Record that ``peer_id`` was just heard."""
        if peer_id == self.node_id:
            return
        is_new = peer_id not in self.neighbors
        self.neighbors[peer_id] = self._last_heard = self.sim.now
        if is_new:
            # A fresh encounter: try to exchange advertisements for every
            # collection we are actively downloading.
            for session in self.sessions.values():
                if session.downloading:
                    self.peer.advertising.maybe_request(session, peer_id)

    def active(self) -> List[str]:
        cutoff = self.sim.now - NEIGHBOR_TIMEOUT
        return [peer for peer, heard in self.neighbors.items() if heard >= cutoff]

    def any_active(self) -> bool:
        """Truthiness-only variant of :meth:`active` (hot path)."""
        if self.sim.now - self._last_heard <= NEIGHBOR_TIMEOUT:
            return True
        cutoff = self.sim.now - NEIGHBOR_TIMEOUT
        return any(heard >= cutoff for heard in self.neighbors.values())

    def forget(self, peer_id: str) -> None:
        """Drop every trace of a neighbour that departed or went dark."""
        self.neighbors.pop(peer_id, None)
        self.knowledge.forget_neighbor(peer_id)
        for session in self.sessions.values():
            if session.fetch is not None:
                session.fetch.forget_peer(peer_id)
            session.bitmaps_requested.discard(peer_id)
            if peer_id in session.pending_bitmap_targets:
                session.pending_bitmap_targets.remove(peer_id)


# Discovery payloads are heard (and re-parsed) by every node in range, so the
# parse is memoized process-wide as an immutable summary.
@functools.lru_cache(maxsize=8192)
def _parse_discovery_payload(content: bytes) -> Optional[tuple]:
    try:
        payload = json.loads(content.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or not payload.get("peer"):
        return None
    return (
        payload["peer"],
        tuple(
            (entry.get("id"), entry.get("metadata"))
            for entry in payload.get("collections", [])
            if isinstance(entry, dict)
        ),
    )
