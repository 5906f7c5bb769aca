"""Data-advertisement prioritization during an encounter (Section IV-F).

When several peers meet, the order in which they transmit their bitmaps
matters: the goal is that encountered peers quickly become aware of as much
available (missing) data as possible.  The rules are:

* the first bitmap of an encounter goes to the peer holding the most data;
* every subsequent transmission is prioritized by the number of packets a
  peer holds that are missing from *all previously transmitted* bitmaps;
* collisions among similarly-useful peers are mitigated by PEBA.

:class:`AdvertisementTracker` maintains, per collection, the union of the
bitmaps already transmitted during the current encounter, and computes the
priority inputs (useful packets / total missing) that feed the scheduler.
:class:`Advertising` is the peer's bitmap part: it owns the tracker, the
:class:`~repro.core.peba.PebaScheduler`, the outstanding bitmap Interests
and the payload codec.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.core.bitmap import Bitmap
from repro.core.config import INTEREST_LIFETIME, NEIGHBOR_TIMEOUT
from repro.core.namespace import DapesNamespace
from repro.core.peba import PebaScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import CollectionSession, DapesPeer


@dataclass
class _EncounterAdvertisementState:
    """Union of bitmaps already heard/transmitted for one collection."""

    transmitted_union: Optional[Bitmap] = None
    bitmaps_heard: int = 0
    last_activity: float = 0.0


@dataclass
class AdvertisementPriority:
    """Inputs to the bitmap-transmission scheduler for one peer."""

    useful_packets: int
    total_missing: int
    bitmaps_heard: int

    @property
    def is_first(self) -> bool:
        """Whether no bitmap has been transmitted yet in this encounter."""
        return self.bitmaps_heard == 0

    @property
    def useful_fraction(self) -> float:
        """Fraction of still-missing packets this peer can provide."""
        if self.total_missing <= 0:
            return 1.0 if self.useful_packets > 0 else 0.0
        return self.useful_packets / self.total_missing


class AdvertisementTracker:
    """Tracks transmitted bitmaps per collection during the current encounter."""

    def __init__(self, encounter_timeout: float = NEIGHBOR_TIMEOUT):
        self.encounter_timeout = encounter_timeout
        self._state: Dict[str, _EncounterAdvertisementState] = {}

    # ------------------------------------------------------------- lifecycle
    def _fresh_state(self, collection: str, now: float) -> _EncounterAdvertisementState:
        state = self._state.get(collection)
        if state is None or now - state.last_activity > self.encounter_timeout:
            state = _EncounterAdvertisementState(last_activity=now)
            self._state[collection] = state
        return state

    def reset(self, collection: Optional[str] = None) -> None:
        """Drop per-encounter state (for one collection or all of them)."""
        if collection is None:
            self._state.clear()
        else:
            self._state.pop(collection, None)

    # --------------------------------------------------------------- updates
    def observe_transmitted_bitmap(self, collection: str, bitmap: Bitmap, now: float) -> None:
        """Record a bitmap heard on the channel (ours or another peer's)."""
        state = self._fresh_state(collection, now)
        if state.transmitted_union is None:
            state.transmitted_union = bitmap.copy()
        elif state.transmitted_union.size == bitmap.size:
            state.transmitted_union = state.transmitted_union.union(bitmap)
        state.bitmaps_heard += 1
        state.last_activity = now

    # --------------------------------------------------------------- queries
    def priority(self, collection: str, own_bitmap: Bitmap, now: float) -> AdvertisementPriority:
        """Priority inputs for transmitting ``own_bitmap`` now."""
        state = self._fresh_state(collection, now)
        union = state.transmitted_union
        if union is None or union.size != own_bitmap.size:
            # First bitmap of the encounter: priority is simply how much data
            # the peer holds (the peer with most data should transmit first).
            return AdvertisementPriority(
                useful_packets=own_bitmap.count(),
                total_missing=own_bitmap.size,
                bitmaps_heard=0,
            )
        missing_from_transmitted = union.missing_count()
        useful = own_bitmap.difference(union).count()
        return AdvertisementPriority(
            useful_packets=useful,
            total_missing=missing_from_transmitted,
            bitmaps_heard=state.bitmaps_heard,
        )

    def bitmaps_heard(self, collection: str, now: float) -> int:
        """How many bitmaps have been heard for ``collection`` this encounter."""
        state = self._state.get(collection)
        if state is None or now - state.last_activity > self.encounter_timeout:
            return 0
        return state.bitmaps_heard

    @property
    def state_size_bytes(self) -> int:
        """Memory held by the tracker (Table I proxy)."""
        total = 0
        for state in self._state.values():
            if state.transmitted_union is not None:
                total += state.transmitted_union.wire_size
        return total


class Advertising:
    """The peer's data advertisements (Sections IV-D and IV-F).

    A bitmap Interest carries the requester's bitmap and its Data the
    target's.  Every bitmap heard, whether requested, answered or
    overheard, goes through :meth:`record` once per reception.  Answers
    wait for their PEBA delay, and a request that expires lets its target
    go dark (``dark_neighbor_fallback``).
    """

    def __init__(self, peer: "DapesPeer"):
        self.peer, self.sim, self.config, self.load = peer, peer.sim, peer.config, peer.load
        self.knowledge, self.sessions, self.node_id = peer.knowledge, peer.sessions, peer.node_id
        self.tracker = AdvertisementTracker()
        self.peba = PebaScheduler(enabled=self.config.peba_enabled, rng=peer.rng)
        self.outstanding: Dict[Name, str] = {}  # bitmap Interest name -> target

    # ----------------------------------------------------------------- events
    def interest(self, interest: Interest) -> None:
        """A bitmap Interest: answer it with our bitmap if it is addressed to us.

        :meth:`overheard` already recorded the requester's bitmap.
        """
        name = interest.name
        if DapesNamespace.bitmap_target(name) != self.node_id:
            return
        collection = DapesNamespace.bitmap_collection(name)
        session = self.sessions.get(collection)
        if session is None or session.store is None or session.metadata is None:
            return
        now = self.sim.now
        heard = self._decode(interest.application_parameters)
        if heard is not None:
            # Collision inference: a repeated request from the same requester
            # shortly after we responded means our previous response (or a
            # concurrent one) was lost to a collision.  The window covers the
            # requester's Interest lifetime plus scheduling slack.
            last = session.last_bitmap_response.get(heard[0])
            if last is not None and now - last < INTEREST_LIFETIME * 1.5:
                self.peba.record_collision()
            session.last_bitmap_response[heard[0]] = now
        own = session.store.bitmap
        priority = self.tracker.priority(collection, own, now)
        decision = self.peba.schedule(priority.useful_packets, priority.total_missing)
        data = self.peer.signed_response(name, encode_payload(self.node_id, collection, own))
        self.load.bitmaps_sent += 1
        self.tracker.observe_transmitted_bitmap(collection, own, now)
        self.peer.respond(data, decision.delay)

    def overheard(self, interest: Interest) -> None:
        # The requester's bitmap travels in the Interest: overhear it.
        self.record(interest.application_parameters)

    def data(self, data: Data) -> None:
        heard = self.record(data.content)
        if heard is None:
            return
        self.outstanding.pop(data.name, None)
        session = self.sessions.get(heard[1])
        if session is None or session.store is None:
            return
        session.bitmaps_received += 1
        self.load.bitmaps_received += 1
        self.peer.fetching.fill(session)

    def expired(self, name: Name) -> None:
        target = self.outstanding.pop(name, None)
        if target is None:
            return
        # Allow a later retry with a fresh serial if the target is still around.
        for session in self.sessions.values():
            session.bitmaps_requested.discard(target)
        if self.config.dark_neighbor_fallback:
            self._fallback_from_dark_neighbor(target)

    # ---------------------------------------------------------------- bitmaps
    def record(self, payload) -> Optional[Tuple[str, str]]:
        """Record a neighbour's bitmap carried by ``payload``.

        Returns ``(peer, collection)``, or ``None`` when ``payload`` is not a
        bitmap or is our own.  The neighbour is touched first, then
        the bitmap goes to the knowledge, the tracker and the session's RPF.
        """
        decoded = self._decode(payload)
        if decoded is None:
            return None
        # Each record gets its own copy: the memoized Bitmap is shared.
        peer_id, collection, bitmap = decoded[0], decoded[1], decoded[2].copy()
        self.peer.discovery.touch(peer_id)
        now = self.sim.now
        self.knowledge.observe_bitmap(peer_id, collection, bitmap, now)
        self.tracker.observe_transmitted_bitmap(collection, bitmap, now)
        session = self.sessions.get(collection)
        if session is not None and session.fetch is not None:
            session.fetch.observe_bitmap(peer_id, bitmap, now)
        return peer_id, collection

    def _decode(self, payload) -> Optional[Tuple[str, str, Bitmap]]:
        """``(peer, collection, shared bitmap)`` from another node's bitmap payload, else ``None``."""
        if not isinstance(payload, (bytes, bytearray)):
            return None
        decoded = _decode_payload(bytes(payload))
        return None if decoded is None or decoded[0] == self.node_id else decoded

    def maybe_request(self, session: "CollectionSession", peer_id: str) -> None:
        """Ask ``peer_id`` for its bitmap, now or interleaved with data fetching."""
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
            self.peer.fetching.fill(session)
            return
        self.request(session, peer_id)

    def request(self, session: "CollectionSession", target: str) -> None:
        """Express a bitmap Interest to ``target`` carrying our own bitmap."""
        collection, own = session.collection_id, session.store.bitmap
        session.bitmap_serial += 1
        session.bitmaps_requested.add(target)
        name = DapesNamespace.bitmap_name(target, collection, session.bitmap_serial)
        params = encode_payload(self.node_id, collection, own)
        self.outstanding[name] = target
        self.tracker.observe_transmitted_bitmap(collection, own, self.sim.now)
        self.peer.express(Interest(
            name=name,
            lifetime=INTEREST_LIFETIME,
            application_parameters=params,
            application_parameters_size=len(params),
        ))

    def _fallback_from_dark_neighbor(self, peer_id: str) -> None:
        """Graceful degradation: a neighbour went dark mid-transfer.

        Rather than waiting out ``NEIGHBOR_TIMEOUT`` on a peer that stopped
        answering (stalled, partitioned away, or abruptly killed), forget it
        now and re-steer every incomplete session toward the remaining
        active neighbours — deterministically, in sorted order, so fault
        runs stay byte-identical across backends.
        """
        discovery = self.peer.discovery
        discovery.forget(peer_id)
        candidates = sorted(peer for peer in discovery.active() if peer != peer_id)
        for session in self.sessions.values():
            if session.downloading:
                for candidate in candidates:
                    self.maybe_request(session, candidate)
                self.peer.fetching.fill(session)


def encode_payload(peer_id: str, collection: str, bitmap: Bitmap) -> bytes:
    """The bitmap payload: a bitmap Interest's parameters or a bitmap Data's content."""
    return json.dumps(
        {"peer": peer_id, "collection": collection, "size": bitmap.size, "bitmap": bitmap.to_bytes().hex()}
    ).encode("utf-8")


# Bitmap payloads are heard (and re-parsed) by every node in range, so the
# parse is memoized process-wide; callers copy the shared Bitmap.
@functools.lru_cache(maxsize=8192)
def _decode_payload(payload: bytes) -> Optional[Tuple[str, str, Bitmap]]:
    try:
        parsed = json.loads(payload.decode("utf-8"))
        bitmap = Bitmap.from_bytes(int(parsed["size"]), bytes.fromhex(parsed["bitmap"]))
        return parsed["peer"], parsed["collection"], bitmap
    except (ValueError, KeyError, TypeError):
        return None
