"""Rarest-Piece-First data-fetching strategies (Section IV-E).

Two flavours are provided, both variants of BitTorrent's RPF adapted to
dynamic off-the-grid communication:

* **Local-neighborhood RPF** — rarity of a packet is the number of peers in
  the *current* neighbourhood whose bitmap shows the packet as missing.  The
  ranking is rebuilt from the bitmaps received during the current encounter
  and expires when the encounter ends; no long-term state is kept.
* **Encounter-based RPF** — rarity is estimated over the bitmaps of the last
  ``history`` encountered peers (swarm-wide estimate), which requires peers
  to keep state across encounters.

Both pick by the one rule Bithoc shares, :meth:`Bitmap.rarest`: of the
missing, not yet requested packets some neighbour's bitmap holds, request
the one the fewest kept bitmaps hold; when none is held, request the first
missing one anyway, as a peer further away may answer.  Both may start at
a random packet instead of the first, which spreads the disseminated data
(Fig. 9a); ties and the fallback follow the sequence order rotated to it.
A pick costs a few whole-int operations per kept bitmap and none per packet.

:class:`Fetching` is the peer's data part: the pipeline RPF feeds, its
retransmission timers, the answers to packet Interests and completion.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.core.bitmap import Bitmap
from repro.core.config import (
    DATA_RETRANSMIT_TIMEOUT,
    ENCOUNTER_HISTORY,
    INTEREST_LIFETIME,
    PIPELINE_SIZE,
    RETRANSMISSION_LIMIT,
    TRANSMISSION_WINDOW,
)
from repro.core.namespace import DapesNamespace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import CollectionSession, CompletionCallback, DapesPeer


class FetchStrategy:
    """Picks the next missing packet to request from the bitmaps it keeps.

    The base class keeps each observed peer's latest bitmap and nothing
    else: what the two flavours differ in is when a bitmap is dropped and
    which kept bitmaps are in range (:meth:`_available`).
    """

    def __init__(self, random_start: bool = True, rng: Optional[random.Random] = None):
        self.random_start = random_start
        self._rng = rng if rng is not None else random.Random(0)
        self._start_offset: Optional[int] = None
        self._bitmaps: Dict[str, Bitmap] = {}

    # ------------------------------------------------------------------ API
    def observe_bitmap(self, peer_id: str, bitmap: Bitmap, now: float) -> None:
        """Record a bitmap advertisement received from ``peer_id``."""
        self._bitmaps[peer_id] = bitmap

    def forget_peer(self, peer_id: str) -> None:
        """A peer disconnected; its bitmap is kept unless the flavour says otherwise."""

    @property
    def state_size_bytes(self) -> int:
        """Memory held across encounters (Table I proxy); none by default."""
        return 0

    def pick(self, own: Bitmap, exclude: Iterable[int] = ()) -> Optional[int]:
        """The next missing packet not in ``exclude`` to request, or ``None`` (Section IV-E).

        ``exclude`` holds the indices that already have an outstanding
        Interest.  Of those a neighbour's bitmap holds, the one the fewest
        kept bitmaps hold wins; when none is held, the first one, since a
        peer further away may answer it.  Ties and that fallback follow the
        (possibly rotated) sequence order.
        """
        candidates = own.missing_mask(exclude)
        if not candidates:
            return None
        offset = self._start(own.size)
        index = Bitmap.rarest(self._available(candidates), self._bitmaps.values(), offset)
        return Bitmap.first(candidates, offset) if index is None else index

    # ------------------------------------------------------------- internals
    def _available(self, candidates: int) -> int:
        """The candidates a peer in range may send; by default every kept bitmap is in range."""
        return candidates

    def _start(self, size: int) -> int:
        if not self.random_start:
            return 0
        if self._start_offset is None or self._start_offset >= size:
            self._start_offset = self._rng.randrange(size) if size else 0
        return self._start_offset


class LocalNeighborhoodRpf(FetchStrategy):
    """RPF across the peers currently within communication range.

    A bitmap is only recorded from a neighbour the peer has just touched,
    and dropped when the peer forgets that neighbour, so the remembered
    peers are always among the current neighbours: when the encounter
    ends, nothing is left.
    """

    def forget_peer(self, peer_id: str) -> None:
        self._bitmaps.pop(peer_id, None)


class EncounterBasedRpf(FetchStrategy):
    """RPF based on the history of encountered peers in the swarm.

    Disconnection and the end of an encounter erase nothing: the last
    ``history`` peers' bitmaps persist, least recently observed dropped first,
    and rarity counts over all of them.  Only a peer still in range can
    answer, though, so a pick ranks only what one of those holds.
    """

    def __init__(
        self,
        history: int = ENCOUNTER_HISTORY,
        random_start: bool = True,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(random_start=random_start, rng=rng)
        if history < 1:
            raise ValueError("history must be >= 1")
        self.history = history
        self._in_range: Set[str] = set()

    def observe_bitmap(self, peer_id: str, bitmap: Bitmap, now: float) -> None:
        # A repeat encounter updates the stored bitmap and refreshes recency.
        bitmaps = self._bitmaps
        bitmaps.pop(peer_id, None)
        bitmaps[peer_id] = bitmap
        while len(bitmaps) > self.history:
            del bitmaps[next(iter(bitmaps))]
        self._in_range.add(peer_id)

    def forget_peer(self, peer_id: str) -> None:
        self._in_range.discard(peer_id)

    def _available(self, candidates: int) -> int:
        held = 0
        for peer_id in self._in_range:
            bitmap = self._bitmaps.get(peer_id)
            if bitmap is not None:
                held |= bitmap.as_int()
        return candidates & held

    @property
    def state_size_bytes(self) -> int:
        """Memory used by the encounter history (Table I proxy)."""
        return sum(bitmap.wire_size for bitmap in self._bitmaps.values())


def make_fetch_strategy(
    name: str, random_start: bool = True, rng: Optional[random.Random] = None
) -> FetchStrategy:
    """Factory used by :class:`~repro.core.config.DapesConfig.rpf_strategy`."""
    if name == "local":
        return LocalNeighborhoodRpf(random_start=random_start, rng=rng)
    if name == "encounter":
        return EncounterBasedRpf(random_start=random_start, rng=rng)
    raise ValueError(f"unknown RPF strategy {name!r} (expected 'local' or 'encounter')")


class Fetching:
    """The peer's data fetching (Section IV-E).

    Up to ``PIPELINE_SIZE`` data Interests, picked by the session's
    :class:`FetchStrategy`, are outstanding per session.  Each goes out after
    a random wait and is retried on an RTO with exponential backoff.  Every
    packet heard, requested or not, is stored, and the last one completes
    the session.
    """

    def __init__(self, peer: "DapesPeer"):
        self.peer, self.sim, self.config, self.load = peer, peer.sim, peer.config, peer.load
        self.rng, self.knowledge, self.sessions = peer.rng, peer.knowledge, peer.sessions
        self.completion_callbacks: List["CompletionCallback"] = []

    # ----------------------------------------------------------------- events
    def interest(self, interest: Interest) -> None:
        """A packet Interest: answer it if our store holds the packet."""
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
        if data is not None:
            self.peer.respond(data)

    def overheard(self, interest: Interest) -> None:
        """An overheard packet Interest names no requester, so it says nothing about a neighbour."""

    def data(self, data: Data) -> None:
        parsed = DapesNamespace.parse_packet_name(data.name)
        if parsed is None:
            return
        now = self.sim.now
        self.knowledge.observe_data(parsed.collection, None, now)
        session = self.sessions.get(parsed.collection)
        if session is None or session.store is None or not session.interested:
            return
        index = session.metadata.packet_index_of(data.name) if session.metadata else None
        if index is None:
            return
        was_requested = index in session.outstanding
        already_had = session.store.has(index)
        if not session.store.add_packet(data, now=now):
            self.load.state_misses += 1
            return
        session.outstanding.pop(index, None)
        if not already_had:
            if was_requested:
                self.load.packets_downloaded += 1
            else:
                self.load.packets_overheard += 1
        self.knowledge.observe_data(parsed.collection, index, now)
        if not session.is_complete or session.completion_time is not None:
            self.fill(session)
            return
        session.completion_time = now
        if session.store.completion_time is None:
            session.store.completion_time = now
        for callback in self.completion_callbacks:
            callback(self.peer, session.collection_id, now)

    def expired(self, name: Name) -> None:
        # Retransmission is driven by the RTO (:meth:`_check`); PIT expiry
        # only nudges the pipeline in case the RTO chain ended.
        parsed = DapesNamespace.parse_packet_name(name)
        session = self.sessions.get(parsed.collection) if parsed is not None else None
        if session is not None and session.store is not None:
            self.fill(session)

    # --------------------------------------------------------------- pipeline
    def _quota(self, session: "CollectionSession") -> int:
        """How many bitmaps ``bitmap_exchange="before"`` waits for."""
        known = self.knowledge.neighbors_with_collection(session.collection_id, self.sim.now)
        available = max(len([peer for peer in known if peer != self.peer.node_id]), 1)
        return available if self.config.max_bitmaps is None else min(self.config.max_bitmaps, available)

    def fill(self, session: "CollectionSession") -> None:
        """Top the session's pipeline up with the packets RPF picks next."""
        if session.store is None or session.fetch is None or not session.interested:
            return
        if session.is_complete or not self.peer.discovery.any_active():
            return
        config = self.config
        if config.bitmap_exchange == "before":
            if session.bitmaps_received < self._quota(session) and session.bitmaps_requested:
                # Still waiting for the advertisements we asked for.
                return
        while len(session.outstanding) < PIPELINE_SIZE:
            if (
                config.bitmap_exchange == "interleaved"
                and session.pending_bitmap_targets
                and self.rng.random() < 0.5
            ):
                self.peer.advertising.request(session, session.pending_bitmap_targets.pop(0))
                continue
            index = session.fetch.pick(session.store.bitmap, session.outstanding)
            if index is None:
                break
            self._request(session, index)

    def _request(self, session: "CollectionSession", index: int, retries: int = 0) -> None:
        """Express a data Interest for packet ``index`` after a random wait."""
        if session.store is None or session.metadata is None or session.store.has(index):
            return
        name = session.metadata.packet_name(index)
        session.outstanding[index] = retries
        delay = self.rng.uniform(0.0, TRANSMISSION_WINDOW)
        self.sim.schedule_call(delay, self._express, session, index, name, retries)
        self.load.timers_armed += 1

    def _express(self, session: "CollectionSession", index: int, name: Name, retries: int) -> None:
        """Send the data Interest :meth:`_request` scheduled and arm its RTO."""
        if not self.peer.started:
            # Liveness guard: the peer departed between scheduling and
            # firing; a stopped peer must not express new Interests.
            session.outstanding.pop(index, None)
            return
        if session.store is None or session.store.has(index):
            session.outstanding.pop(index, None)
            self.fill(session)
            return
        self.peer.express(Interest(name=name, lifetime=INTEREST_LIFETIME))
        # Application-level retransmission timer (RTT-style), much shorter
        # than the Interest lifetime so a single lost frame does not stall
        # the pipeline.
        rto = DATA_RETRANSMIT_TIMEOUT * (2 ** min(retries, 4))
        if self.config.retransmit_jitter:
            # Jittered exponential backoff: desynchronize peers whose
            # retransmission timers would otherwise collide under
            # sustained loss.  Zero jitter draws nothing (byte-identity).
            rto *= 1.0 + self.rng.uniform(0.0, self.config.retransmit_jitter)
        self.sim.schedule_call(rto, self._check, session, index, retries)
        self.load.timers_armed += 1

    def _check(self, session: "CollectionSession", index: int, retries: int) -> None:
        """Retransmit an unanswered data Interest, or give up after the limit."""
        if not self.peer.started or session.store is None or session.store.has(index):
            return  # the peer departed, or the packet arrived
        if session.outstanding.get(index) != retries:
            return  # already resolved or superseded by a newer attempt
        del session.outstanding[index]
        if retries < RETRANSMISSION_LIMIT and self.peer.discovery.any_active():
            self.load.retransmissions += 1
            self._request(session, index, retries=retries + 1)
        else:
            self.fill(session)
