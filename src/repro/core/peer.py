"""The DAPES peer application.

A :class:`DapesPeer` implements the full protocol behaviour of Section IV on
top of a local NDN forwarder:

1. *Discovery* (Section IV-B) — periodic discovery Interests with an
   adaptive period; discovery Data lists the metadata names of the
   collections the responder can offer.
2. *Secure initialization* (Section IV-C) — retrieval of the signed
   collection metadata (segmented if necessary), authenticated against the
   peer's local trust anchors.
3. *Data advertisements* (Section IV-D) — bitmap Interests carrying the
   requester's bitmap; bitmap Data carrying the responder's bitmap, with
   transmission prioritization and PEBA collision mitigation (Section IV-F).
4. *Data fetching* (Section IV-E) — a pipeline of Interests for the packets
   chosen by the configured RPF strategy, with random transmission timers,
   retransmissions, and opportunistic use of overheard packets.

The same class also covers the producer role (:meth:`publish_collection`),
repositories (a peer with ``interested_in_all=True``) and intermediate DAPES
nodes (a peer that never joins a collection but still builds knowledge and
forwards for others through :class:`~repro.core.intermediate.DapesForwardingStrategy`).
"""

from __future__ import annotations

import base64
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
from repro.core.advertisement import AdvertisementTracker
from repro.core.bitmap import Bitmap
from repro.core.collection import FileCollection, PacketStore
from repro.core.config import DapesConfig
from repro.core.knowledge import NeighborKnowledge
from repro.core.metadata import CollectionMetadata
from repro.core.namespace import DapesNamespace
from repro.core.peba import PebaScheduler
from repro.core.rpf import FetchStrategy, make_fetch_strategy
from repro.core.stats import NodeLoadStats

CompletionCallback = Callable[["DapesPeer", str, float], None]


@dataclass(slots=True)
class _OutstandingInterest:
    """Book-keeping for one outstanding data Interest."""

    name: Name
    retries: int = 0
    sent_at: float = 0.0


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
    metadata_total_segments: Optional[int] = None
    metadata_requested: bool = False
    fetch: Optional[FetchStrategy] = None
    outstanding: Dict[int, _OutstandingInterest] = field(default_factory=dict)
    pending_bitmap_targets: List[str] = field(default_factory=list)
    bitmaps_requested: Set[str] = field(default_factory=set)
    bitmaps_received: int = 0
    bitmap_serial: int = 0
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    distrusted: bool = False
    last_bitmap_response: Dict[str, float] = field(default_factory=dict)

    @property
    def own_bitmap(self) -> Optional[Bitmap]:
        return self.store.bitmap if self.store is not None else None

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
        self.knowledge = NeighborKnowledge(timeout=self.config.knowledge_timeout)
        self.adverts = AdvertisementTracker(encounter_timeout=self.config.neighbor_timeout)
        self._rng = sim.rng(f"dapes.peer.{node_id}")
        self.peba = PebaScheduler(
            transmission_window=self.config.transmission_window,
            slot_duration=self.config.peba_slot_duration,
            initial_slots=self.config.peba_initial_slots,
            priority_groups=self.config.peba_priority_groups,
            max_slots=self.config.peba_max_slots,
            enabled=self.config.peba_enabled,
            rng=self._rng,
        )
        self.sessions: Dict[str, CollectionSession] = {}
        self.join_targets: Set[str] = set()
        self.neighbors: Dict[str, float] = {}
        self._last_neighbor_heard = -1e9
        self._discovery_serial = 0
        self._pending_responses: Dict[Name, object] = {}
        self._outstanding_bitmaps: Dict[Name, str] = {}
        self._completion_callbacks: List[CompletionCallback] = []
        self._discovery_content_cache: Optional[tuple] = None
        self._started = False

        app_face.on_interest = self._on_app_interest
        app_face.on_data = self._on_app_data

        self._discovery_timer = PeriodicTimer(
            sim,
            self._send_discovery,
            period=self._discovery_period,
            jitter=0.2,
            rng=self._rng,
        )
        self._housekeeping_timer = PeriodicTimer(sim, self._housekeeping, period=1.0)

    # ------------------------------------------------------------------ setup
    def start(self) -> None:
        """Begin periodic discovery and housekeeping."""
        if self._started:
            return
        self._started = True
        self._discovery_timer.start(initial_delay=self._rng.uniform(0.0, 1.0))
        self._housekeeping_timer.start(initial_delay=1.0)
        self.load.timers_armed += 2

    def stop(self) -> None:
        """Stop timers (the peer keeps answering Interests already in flight)."""
        self._discovery_timer.stop()
        self._housekeeping_timer.stop()
        self._started = False

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
        self._completion_callbacks.append(callback)

    # -------------------------------------------------------------- producers
    def publish_collection(
        self, collection: FileCollection, metadata_format: Optional[str] = None
    ) -> CollectionMetadata:
        """Create, sign and start serving a file collection (producer role)."""
        metadata = collection.build_metadata(metadata_format or self.config.metadata_format)
        session = self._session(metadata.collection, create=True)
        session.producer = True
        session.interested = True
        session.metadata = metadata
        session.metadata_name = metadata.name()
        session.store = PacketStore(metadata)
        session.store.mark_all_present(collection, self.key)
        session.fetch = self._new_fetch_strategy()
        session.completion_time = self.sim.now
        session.metadata_segments = self._build_metadata_segments(metadata)
        return metadata

    def _build_metadata_segments(self, metadata: CollectionMetadata) -> Dict[int, Data]:
        encoded = metadata.encode()
        chunk_size = max(self.config.packet_size - 200, 256)
        chunks = [encoded[i:i + chunk_size] for i in range(0, len(encoded), chunk_size)] or [b""]
        segments: Dict[int, Data] = {}
        for index, chunk in enumerate(chunks):
            content = json.dumps(
                {
                    "segment": index,
                    "total": len(chunks),
                    "chunk": base64.b64encode(chunk).decode("ascii"),
                }
            ).encode("utf-8")
            name = metadata.name(segment=index)
            segments[index] = Data(
                name=name,
                content=content,
                signature=sign(str(name), content, self.key),
            )
        return segments

    # ------------------------------------------------------------ downloaders
    def join(self, collection_id: str) -> None:
        """Declare interest in downloading a collection (by its name component)."""
        collection_id = Name(collection_id)[0]
        self.join_targets.add(collection_id)
        session = self._session(collection_id, create=True)
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

    @property
    def completed_collections(self) -> List[str]:
        return [cid for cid, session in self.sessions.items() if session.completion_time is not None]

    def progress(self, collection_id: str) -> float:
        session = self.sessions.get(Name(collection_id)[0])
        if session is None or session.store is None:
            return 0.0
        return session.store.progress()

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

    # --------------------------------------------------------------- discovery
    def _discovery_period(self) -> float:
        recently = self.sim.now - self._last_neighbor_heard <= self.config.discovery_recent_window
        return self.config.discovery_period_active if recently else self.config.discovery_period_idle

    def _send_discovery(self) -> None:
        self.load.activation()
        self._discovery_serial += 1
        name = DapesNamespace.discovery_name(self.node_id, self._discovery_serial)
        interest = Interest(name=name, lifetime=1.0)
        self._express(interest)
        self.load.discovery_sent += 1

    def _respond_discovery(self, interest: Interest) -> None:
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
        cached = self._discovery_content_cache
        if cached is not None and cached[0] == key:
            content = cached[1]
        else:
            offers = [
                {"id": collection_id, "metadata": metadata_name, "packets": packets}
                for collection_id, metadata_name, packets in key
            ]
            content = json.dumps({"peer": self.node_id, "collections": offers}).encode("utf-8")
            self._discovery_content_cache = (key, content)
        data = self._signed_response(interest.name, content)
        self._schedule_response(data, self._rng.uniform(0.0, self.config.transmission_window))

    # ----------------------------------------------------------- app callbacks
    def _on_app_interest(self, interest: Interest) -> None:
        """An Interest reached the application (we may be able to answer it)."""
        self.load.activation()
        self.load.messages_received += 1
        name = interest.name
        kind = DapesNamespace.classify(name)
        if kind == "discovery":
            sender = DapesNamespace.discovery_sender(name)
            if sender != self.node_id:
                self._touch_neighbor(sender)
                self.load.discovery_received += 1
                self._respond_discovery(interest)
        elif kind == "bitmap":
            if DapesNamespace.bitmap_target(name) == self.node_id:
                self._handle_bitmap_request(interest)
        elif kind == "metadata":
            self._respond_metadata(interest)
        else:
            self._respond_packet(interest)

    def _on_app_data(self, data: Data) -> None:
        """Data satisfying one of our Interests reached the application."""
        self.load.activation()
        self.load.messages_received += 1
        self._dispatch_data(data, solicited=True)

    # -------------------------------------------------- strategy observations
    def observe_interest(self, interest: Interest) -> None:
        """Called by the forwarding strategy for every Interest heard on the air."""
        name = interest.name
        kind = DapesNamespace.classify(name)
        if kind == "discovery":
            sender = DapesNamespace.discovery_sender(name)
            if sender != self.node_id:
                self._touch_neighbor(sender)
        elif kind == "bitmap":
            # The requester's bitmap travels in the Interest: overhear it.
            payload = self._decode_bitmap_payload(interest.application_parameters)
            if payload is not None:
                sender, collection, bitmap = payload
                if sender != self.node_id:
                    self._touch_neighbor(sender)
                    self._record_neighbor_bitmap(sender, collection, bitmap)
        elif kind == "collection-data":
            parsed = DapesNamespace.parse_packet_name(name)
            if parsed is not None:
                self.knowledge.observe_interest("(unknown)", parsed.collection, self.sim.now)

    def observe_data(self, data: Data) -> None:
        """Called by the forwarding strategy for every Data packet heard on the air."""
        self._cancel_pending_response(data.name)
        self._dispatch_data(data, solicited=False)

    def on_pit_expired(self, entry) -> None:
        """Called when a locally created PIT entry expired unsatisfied."""
        self._handle_expired_name(entry.name)

    # ----------------------------------------------------------- data dispatch
    def _dispatch_data(self, data: Data, solicited: bool) -> None:
        name = data.name
        kind = DapesNamespace.classify(name)
        if kind == "discovery":
            self._process_discovery_data(data)
        elif kind == "bitmap":
            self._process_bitmap_data(data)
        elif kind == "metadata":
            self._process_metadata_segment(data)
        else:
            self._process_packet(data, solicited=solicited)

    # ------------------------------------------------------------- responding
    def _signed_response(self, name: Name, content: bytes) -> Data:
        """A short-lived signed answer (discovery and bitmap responses)."""
        signature = sign(str(name), content, self.key)
        return Data(name=name, content=content, signature=signature, freshness_period=1.0)

    def _schedule_response(self, data: Data, delay: float) -> None:
        """Schedule transmission of a response, cancellable if overheard first."""
        def _send() -> None:
            self._pending_responses.pop(data.name, None)
            self.load.activation()
            self.load.messages_sent += 1
            self.load.interests_answered += 1
            self.app_face.put_data(data)

        handle = self.sim.schedule(max(delay, 0.0), _send)
        self._pending_responses[data.name] = handle
        self.load.timers_armed += 1

    def _cancel_pending_response(self, name: Name) -> None:
        handle = self._pending_responses.pop(name, None)
        if handle is not None:
            self.sim.cancel(handle)

    def _respond_packet(self, interest: Interest) -> None:
        parsed = DapesNamespace.parse_packet_name(interest.name)
        if parsed is None:
            return
        session = self.sessions.get(parsed.collection)
        if session is None or session.store is None or session.metadata is None:
            return
        index = session.metadata.packet_index_of(interest.name)
        if index is None or not session.store.has(index):
            return
        data = session.store.packet(index)
        if data is None:
            return
        delay = self._rng.uniform(0.0, self.config.transmission_window)
        self._schedule_response(data, delay)

    def _respond_metadata(self, interest: Interest) -> None:
        collection = DapesNamespace.metadata_collection(interest.name)
        session = self.sessions.get(collection)
        if session is None or not session.metadata_segments:
            return
        segment = 0
        if len(interest.name) >= 4:
            try:
                segment = int(interest.name[-1])
            except ValueError:
                segment = 0
        data = session.metadata_segments.get(segment)
        if data is None or not interest.matches(data):
            # Serve only what satisfies the Interest (digest must agree).
            return
        delay = self._rng.uniform(0.0, self.config.transmission_window)
        self._schedule_response(data, delay)

    def _handle_bitmap_request(self, interest: Interest) -> None:
        collection = DapesNamespace.bitmap_collection(interest.name)
        session = self.sessions.get(collection)
        payload = self._decode_bitmap_payload(interest.application_parameters)
        requester = None
        if payload is not None:
            requester, payload_collection, requester_bitmap = payload
            self._touch_neighbor(requester)
            self._record_neighbor_bitmap(requester, payload_collection, requester_bitmap)
        if session is None or session.store is None or session.metadata is None:
            return
        # Collision inference: a repeated bitmap request from the same
        # requester shortly after we responded means our previous response
        # (or a concurrent one) was lost to a collision.  The window covers
        # the requester's Interest lifetime plus scheduling slack.
        if requester is not None:
            last = session.last_bitmap_response.get(requester)
            collision_window = self.config.interest_lifetime * 1.5
            if last is not None and self.sim.now - last < collision_window:
                self.peba.record_collision()
            session.last_bitmap_response[requester] = self.sim.now

        own_bitmap = session.store.bitmap
        priority = self.adverts.priority(collection, own_bitmap, self.sim.now)
        decision = self.peba.schedule(priority.useful_packets, priority.total_missing)
        data = self._signed_response(interest.name, self._encode_bitmap_payload(collection, own_bitmap))
        self.load.bitmaps_sent += 1
        self.adverts.observe_transmitted_bitmap(collection, own_bitmap, self.sim.now)
        self._schedule_response(data, decision.delay)

    # ----------------------------------------------------- discovery handling
    def _process_discovery_data(self, data: Data) -> None:
        summary = _parse_discovery_payload(data.content)
        if summary is None:
            return
        peer_id, collections = summary
        if peer_id == self.node_id:
            return
        self._touch_neighbor(peer_id)
        for collection_id, metadata_name in collections:
            if not collection_id or not metadata_name:
                continue
            self.knowledge.observe_interest(peer_id, collection_id, self.sim.now)
            wanted = self.config.interested_in_all or collection_id in self.join_targets
            session = self.sessions.get(collection_id)
            if session is None:
                if not wanted:
                    continue
                session = self._session(collection_id, create=True)
                session.start_time = self.sim.now
            if session.metadata is None:
                session.metadata_name = Name(metadata_name)
                if wanted or session.interested:
                    self._request_metadata(session)
            elif session.interested and not session.is_complete:
                self._maybe_request_bitmap(session, peer_id)

    # ------------------------------------------------------ metadata handling
    def _request_metadata(self, session: CollectionSession, segment: int = 0) -> None:
        if session.metadata is not None or session.metadata_name is None or session.distrusted:
            return
        name = session.metadata_name.append(str(segment))
        interest = Interest(name=name, lifetime=self.config.interest_lifetime)
        session.metadata_requested = True
        self._express(interest)

    def _process_metadata_segment(self, data: Data) -> None:
        collection = DapesNamespace.metadata_collection(data.name)
        session = self.sessions.get(collection)
        if session is None or session.metadata is not None or session.distrusted:
            return
        if not (self.config.interested_in_all or collection in self.join_targets or session.interested):
            return
        # Authenticate the segment against our local trust anchors.
        if data.signature is None or not self.trust.authenticate(str(data.name), data.content, data.signature):
            session.distrusted = True
            return
        try:
            payload = json.loads(data.content.decode("utf-8"))
            segment = int(payload["segment"])
            total = int(payload["total"])
            chunk = base64.b64decode(payload["chunk"])
        except (ValueError, KeyError, TypeError):
            return
        if session.metadata_name is None:
            session.metadata_name = data.name.parent()
        session.metadata_chunks[segment] = chunk
        session.metadata_total_segments = total
        missing = [i for i in range(total) if i not in session.metadata_chunks]
        if missing:
            self._request_metadata(session, segment=missing[0])
            return
        encoded = b"".join(session.metadata_chunks[i] for i in range(total))
        try:
            metadata = CollectionMetadata.decode(encoded)
        except (ValueError, KeyError):
            return
        if not self.trust.is_trusted(metadata.producer):
            session.distrusted = True
            return
        session.metadata = metadata
        session.store = PacketStore(metadata)
        session.fetch = self._new_fetch_strategy()
        session.metadata_segments = self._build_metadata_segments(metadata)
        self.load.metadata_fetched += 1
        if session.start_time is None:
            session.start_time = self.sim.now
        # Begin advertisement exchange with every neighbour believed relevant.
        for neighbor in self.knowledge.neighbors_with_collection(metadata.collection, self.sim.now):
            if neighbor != self.node_id:
                self._maybe_request_bitmap(session, neighbor)
        self._fill_pipeline(session)

    # -------------------------------------------------------- bitmap handling
    def _encode_bitmap_payload(self, collection: str, bitmap: Bitmap) -> bytes:
        return json.dumps(
            {
                "peer": self.node_id,
                "collection": collection,
                "size": bitmap.size,
                "bitmap": bitmap.to_bytes().hex(),
            }
        ).encode("utf-8")

    def _decode_bitmap_payload(self, payload) -> Optional[tuple[str, str, Bitmap]]:
        if not isinstance(payload, (bytes, bytearray)):
            return None
        decoded = _decode_bitmap(bytes(payload))
        if decoded is None:
            return None
        # Each caller gets its own copy: the memoized Bitmap is shared.
        peer_id, collection, bitmap = decoded
        return peer_id, collection, bitmap.copy()

    def _record_neighbor_bitmap(self, peer_id: str, collection: str, bitmap: Bitmap) -> None:
        self.knowledge.observe_bitmap(peer_id, collection, bitmap, self.sim.now)
        self.adverts.observe_transmitted_bitmap(collection, bitmap, self.sim.now)
        session = self.sessions.get(collection)
        if session is not None and session.fetch is not None:
            session.fetch.observe_bitmap(peer_id, bitmap, self.sim.now)

    def _maybe_request_bitmap(self, session: CollectionSession, peer_id: str) -> None:
        if session.store is None or session.is_complete or not session.interested:
            return
        if peer_id == self.node_id or peer_id in session.bitmaps_requested:
            return
        quota = self.config.max_bitmaps
        if quota is not None and len(session.bitmaps_requested) >= quota:
            return
        if self.config.bitmap_exchange == "interleaved" and session.bitmaps_requested:
            # Later bitmaps are interleaved with data fetching.
            if peer_id not in session.pending_bitmap_targets:
                session.pending_bitmap_targets.append(peer_id)
            self._fill_pipeline(session)
            return
        self._send_bitmap_interest(session, peer_id)

    def _send_bitmap_interest(self, session: CollectionSession, target: str) -> None:
        if session.store is None:
            return
        session.bitmap_serial += 1
        session.bitmaps_requested.add(target)
        name = DapesNamespace.bitmap_name(target, session.collection_id, session.bitmap_serial)
        params = self._encode_bitmap_payload(session.collection_id, session.store.bitmap)
        interest = Interest(
            name=name,
            lifetime=self.config.interest_lifetime,
            application_parameters=params,
            application_parameters_size=len(params),
        )
        self._outstanding_bitmaps[name] = target
        self.adverts.observe_transmitted_bitmap(session.collection_id, session.store.bitmap, self.sim.now)
        self._express(interest)

    def _process_bitmap_data(self, data: Data) -> None:
        payload = self._decode_bitmap_payload(data.content)
        if payload is None:
            return
        peer_id, collection, bitmap = payload
        if peer_id == self.node_id:
            return
        self._touch_neighbor(peer_id)
        self._record_neighbor_bitmap(peer_id, collection, bitmap)
        self._outstanding_bitmaps.pop(data.name, None)
        session = self.sessions.get(collection)
        if session is None or session.store is None:
            return
        session.bitmaps_received += 1
        self.load.bitmaps_received += 1
        self._fill_pipeline(session)

    # --------------------------------------------------------- data fetching
    def _quota(self, session: CollectionSession) -> int:
        known = self.knowledge.neighbors_with_collection(session.collection_id, self.sim.now)
        available = len([peer for peer in known if peer != self.node_id])
        if self.config.max_bitmaps is None:
            return max(available, 1)
        return min(self.config.max_bitmaps, max(available, 1))

    def _fill_pipeline(self, session: CollectionSession) -> None:
        if session.store is None or session.fetch is None or not session.interested:
            return
        if session.is_complete:
            return
        if not self._has_active_neighbors():
            return
        if self.config.bitmap_exchange == "before":
            if session.bitmaps_received < self._quota(session) and session.bitmaps_requested:
                # Still waiting for the advertisements we asked for.
                return
        while len(session.outstanding) < self.config.pipeline_size:
            if (
                self.config.bitmap_exchange == "interleaved"
                and session.pending_bitmap_targets
                and self._rng.random() < 0.5
            ):
                target = session.pending_bitmap_targets.pop(0)
                self._send_bitmap_interest(session, target)
                continue
            picks = session.fetch.select(
                session.store.bitmap, 1, exclude=session.outstanding.keys()
            )
            if not picks:
                break
            self._send_data_interest(session, picks[0])

    def _send_data_interest(self, session: CollectionSession, index: int, retries: int = 0) -> None:
        if session.store is None or session.metadata is None:
            return
        if session.store.has(index):
            return
        name = session.metadata.packet_name(index)
        session.outstanding[index] = _OutstandingInterest(name=name, retries=retries, sent_at=self.sim.now)
        delay = self._rng.uniform(0.0, self.config.transmission_window)

        def _send() -> None:
            if not self._started:
                # Liveness guard: the peer departed between scheduling and
                # firing; a stopped peer must not express new Interests.
                session.outstanding.pop(index, None)
                return
            if session.store is None or session.store.has(index):
                session.outstanding.pop(index, None)
                self._fill_pipeline(session)
                return
            interest = Interest(name=name, lifetime=self.config.interest_lifetime)
            self._express(interest)
            # Application-level retransmission timer (RTT-style), much shorter
            # than the Interest lifetime so a single lost frame does not stall
            # the pipeline.
            rto = self.config.data_retransmit_timeout * (2 ** min(retries, 4))
            if self.config.retransmit_jitter:
                # Jittered exponential backoff: desynchronize peers whose
                # retransmission timers would otherwise collide under
                # sustained loss.  Zero jitter draws nothing (byte-identity).
                rto *= 1.0 + self._rng.uniform(0.0, self.config.retransmit_jitter)
            self.sim.schedule_call(rto, self._check_data_interest, session, index, retries)
            self.load.timers_armed += 1

        self.sim.schedule_call(delay, _send)
        self.load.timers_armed += 1

    def _check_data_interest(self, session: CollectionSession, index: int, retries: int) -> None:
        """Retransmit an unanswered data Interest, or give up after the limit."""
        if not self._started:
            # Liveness guard: retransmission timer outlived the peer.
            return
        if session.store is None or session.store.has(index):
            return
        outstanding = session.outstanding.get(index)
        if outstanding is None or outstanding.retries != retries:
            return  # already resolved or superseded by a newer attempt
        session.outstanding.pop(index, None)
        if retries < self.config.retransmission_limit and self._has_active_neighbors():
            self.load.retransmissions += 1
            self._send_data_interest(session, index, retries=retries + 1)
        else:
            self._fill_pipeline(session)

    def _process_packet(self, data: Data, solicited: bool) -> None:
        parsed = DapesNamespace.parse_packet_name(data.name)
        if parsed is None:
            return
        self.knowledge.observe_data(parsed.collection, None, self.sim.now)
        session = self.sessions.get(parsed.collection)
        if session is None or session.store is None or not session.interested:
            return
        index = session.metadata.packet_index_of(data.name) if session.metadata else None
        if index is None:
            return
        was_requested = index in session.outstanding
        already_had = session.store.has(index)
        accepted = session.store.add_packet(data, now=self.sim.now)
        if not accepted:
            self.load.state_misses += 1
            return
        session.outstanding.pop(index, None)
        if not already_had:
            if was_requested:
                self.load.packets_downloaded += 1
            else:
                self.load.packets_overheard += 1
        self.knowledge.observe_data(parsed.collection, index, self.sim.now)
        if session.is_complete and session.completion_time is None:
            session.completion_time = self.sim.now
            if session.store.completion_time is None:
                session.store.completion_time = self.sim.now
            for callback in self._completion_callbacks:
                callback(self, session.collection_id, self.sim.now)
        else:
            self._fill_pipeline(session)

    # ---------------------------------------------------------- timeouts etc.
    def _handle_expired_name(self, name: Name) -> None:
        kind = DapesNamespace.classify(name)
        if kind == "bitmap":
            target = self._outstanding_bitmaps.pop(name, None)
            if target is not None:
                # Allow a later retry with a fresh serial if the target is still around.
                for session in self.sessions.values():
                    session.bitmaps_requested.discard(target)
                if self.config.dark_neighbor_fallback:
                    self._fallback_from_dark_neighbor(target)
            return
        if kind == "metadata":
            collection = DapesNamespace.metadata_collection(name)
            session = self.sessions.get(collection)
            if session is not None and session.metadata is None and self._has_active_neighbors():
                self.load.retransmissions += 1
                self._request_metadata(session)
            return
        if kind == "collection-data":
            # Data-interest retransmission is driven by the application-level
            # RTO (:meth:`_check_data_interest`); PIT expiry only nudges the
            # pipeline in case the RTO chain ended.
            parsed = DapesNamespace.parse_packet_name(name)
            if parsed is None:
                return
            session = self.sessions.get(parsed.collection)
            if session is None or session.store is None:
                return
            self._fill_pipeline(session)

    def _fallback_from_dark_neighbor(self, peer_id: str) -> None:
        """Graceful degradation: a neighbour went dark mid-transfer.

        Rather than waiting out ``neighbor_timeout`` on a peer that stopped
        answering (stalled, partitioned away, or abruptly killed), forget it
        now and re-steer every incomplete session toward the remaining
        active neighbours — deterministically, in sorted order, so fault
        runs stay byte-identical across backends.
        """
        self._forget_neighbor(peer_id)
        candidates = sorted(peer for peer in self._active_neighbors() if peer != peer_id)
        for session in self.sessions.values():
            if session.downloading:
                for candidate in candidates:
                    self._maybe_request_bitmap(session, candidate)
                self._fill_pipeline(session)

    # ----------------------------------------------------------------- recovery
    def reannounce(self) -> None:
        """Recovery nudge: a partition healed or a stall resumed nearby.

        Sends an immediate discovery Interest (instead of waiting for the
        periodic timer) and kicks every incomplete session's pipeline so
        re-discovered neighbours are put to work right away.
        """
        if not self._started:
            return
        self._send_discovery()
        for session in self.sessions.values():
            if session.downloading:
                self._fill_pipeline(session)

    # ------------------------------------------------------------- neighbours
    def _touch_neighbor(self, peer_id: str) -> None:
        if peer_id == self.node_id:
            return
        is_new = peer_id not in self.neighbors
        self.neighbors[peer_id] = self.sim.now
        self._last_neighbor_heard = self.sim.now
        if is_new:
            # A fresh encounter: try to exchange advertisements for every
            # collection we are actively downloading.
            for session in self.sessions.values():
                if session.downloading:
                    self._maybe_request_bitmap(session, peer_id)

    def _active_neighbors(self) -> List[str]:
        cutoff = self.sim.now - self.config.neighbor_timeout
        return [peer for peer, heard in self.neighbors.items() if heard >= cutoff]

    def _has_active_neighbors(self) -> bool:
        """Truthiness-only variant of :meth:`_active_neighbors` (hot path)."""
        if self.sim.now - self._last_neighbor_heard <= self.config.neighbor_timeout:
            return True
        cutoff = self.sim.now - self.config.neighbor_timeout
        return any(heard >= cutoff for heard in self.neighbors.values())

    def _forget_neighbor(self, peer_id: str) -> None:
        """Drop every trace of a neighbour that departed or went dark."""
        self.neighbors.pop(peer_id, None)
        self.knowledge.forget_neighbor(peer_id)
        for session in self.sessions.values():
            if session.fetch is not None:
                session.fetch.forget_peer(peer_id)
            session.bitmaps_requested.discard(peer_id)
            if peer_id in session.pending_bitmap_targets:
                session.pending_bitmap_targets.remove(peer_id)

    def _housekeeping(self) -> None:
        self.load.activation()
        now = self.sim.now
        cutoff = now - self.config.neighbor_timeout
        departed = [peer for peer, heard in self.neighbors.items() if heard < cutoff]
        for peer in departed:
            self._forget_neighbor(peer)
        if departed and not self.neighbors:
            # Encounter over: per-encounter state expires (Section IV-E/IV-F).
            self.adverts.reset()
            self.peba.reset_encounter()
            for session in self.sessions.values():
                if session.fetch is not None:
                    session.fetch.reset_encounter()
                session.bitmaps_requested.clear()
                session.bitmaps_received = 0
        self.knowledge.prune(now)
        self.load.record_state_size(self.state_size_bytes)
        # Keep the pipelines moving even if an event was missed.
        for session in self.sessions.values():
            if session.downloading:
                self._fill_pipeline(session)
            elif session.interested and session.metadata is None and session.metadata_name is not None:
                if self._has_active_neighbors() and not session.distrusted:
                    self._request_metadata(session)

    # -------------------------------------------------------------- internals
    def _session(self, collection_id: str, create: bool = False) -> CollectionSession:
        collection_id = Name(collection_id)[0]
        session = self.sessions.get(collection_id)
        if session is None:
            if not create:
                raise KeyError(f"no session for collection {collection_id!r}")
            session = CollectionSession(collection_id=collection_id)
            self.sessions[collection_id] = session
        return session

    def _new_fetch_strategy(self) -> FetchStrategy:
        return make_fetch_strategy(
            self.config.rpf_strategy,
            random_start=self.config.random_start,
            history=self.config.encounter_history,
            rng=self._rng,
        )

    def _express(self, interest: Interest) -> None:
        self.load.messages_sent += 1
        self.app_face.express_interest(interest)

    # ------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        """Bytes of protocol state held by this peer (Table I memory proxy)."""
        total = self.forwarder.state_size_bytes
        total += self.knowledge.state_size_bytes
        total += self.adverts.state_size_bytes
        for session in self.sessions.values():
            if session.store is not None:
                total += session.store.state_size_bytes
            if session.fetch is not None:
                total += session.fetch.state_size_bytes
        return total


# Discovery and bitmap payloads are heard (and re-parsed) by every node in
# range, so both parses are memoized process-wide as immutable summaries.
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


@functools.lru_cache(maxsize=8192)
def _decode_bitmap(payload: bytes) -> Optional[tuple[str, str, Bitmap]]:
    try:
        parsed = json.loads(payload.decode("utf-8"))
        bitmap = Bitmap.from_bytes(int(parsed["size"]), bytes.fromhex(parsed["bitmap"]))
        return parsed["peer"], parsed["collection"], bitmap
    except (ValueError, KeyError, TypeError):
        return None
