"""The NDN forwarder (the paper's NFD, Figure 1).

Interest pipeline: Content Store lookup → PIT insert/aggregate (with nonce
loop detection) → strategy decision → forward.  Data pipeline: PIT match →
cache → forward to the faces the matching Interests arrived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ndn.content_store import ContentStore
from repro.ndn.face import AppFace, Face
from repro.ndn.packet import Data, Interest
from repro.ndn.pit import Pit, PitEntry
from repro.ndn.strategy import ForwardingStrategy, MulticastStrategy
from repro.simulation import Simulator


@dataclass
class ForwarderConfig:
    """Tunables of one forwarder instance."""

    cs_capacity: int = 4096
    forwarding_delay: float = 0.0002


@dataclass
class ForwarderStats:
    """The forwarder's counters.

    Nothing in the simulator reads them: each is one of the five ``ndn.*``
    counts ``perfbench/tracepass.py`` (``NDN_COUNTS``) reads by name.
    """

    interests_received: int = 0
    data_received: int = 0
    interests_forwarded: int = 0
    cs_hits_served: int = 0
    pit_expirations: int = 0


class Forwarder:
    """One node's NDN forwarding daemon."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: Optional[ForwarderConfig] = None,
        strategy: Optional[ForwardingStrategy] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.config = config if config is not None else ForwarderConfig()
        self.cs = ContentStore(capacity=self.config.cs_capacity)
        self.pit = Pit()
        self.stats = ForwarderStats()
        self._faces: Dict[int, Face] = {}
        self._next_face_id = 1
        # Bumped whenever the face set changes, so strategies can cache
        # face-role lists (queried per Interest) without going stale.
        self.faces_version = 0
        self.strategy = strategy if strategy is not None else MulticastStrategy()
        self.strategy.attach(self)

    # ----------------------------------------------------------------- faces
    def add_face(self, face: Face) -> Face:
        """Attach a face and assign it an id."""
        face.face_id = self._next_face_id
        self._next_face_id += 1
        face.forwarder = self
        self._faces[face.face_id] = face
        self.faces_version += 1
        return face

    def face(self, face_id: int) -> Face:
        return self._faces[face_id]

    def face_ids(self) -> List[int]:
        return list(self._faces)

    def faces(self) -> List[Face]:
        return list(self._faces.values())

    def set_strategy(self, strategy: ForwardingStrategy) -> None:
        """Install a forwarding strategy (replaces the previous one)."""
        self.strategy = strategy
        strategy.attach(self)

    # ------------------------------------------------------ interest pipeline
    def process_interest(self, interest: Interest, incoming_face: Face) -> None:
        """Full Interest processing pipeline (Figure 1, left half)."""
        self.stats.interests_received += 1
        if interest.hop_limit <= 0:
            return

        cached = self.cs.find(interest)
        if cached is not None:
            self.stats.cs_hits_served += 1
            self._send_data(cached, incoming_face.face_id)
            return

        entry, is_new, is_loop = self.pit.insert(interest, incoming_face.face_id, self.sim.now)
        if is_loop:
            return
        if is_new:
            # Schedule cleanup when the Interest lifetime elapses.
            self.sim.schedule_call(interest.lifetime, self._check_expiry, entry.name)

        decision = self.strategy.decide_interest_forwarding(
            interest, incoming_face.face_id, entry, is_new
        )
        for face_id, delay in decision:
            # Forwarding back out the incoming face is legitimate on broadcast
            # (wireless) faces — that is how hop-by-hop re-broadcasting works —
            # so the strategy decides; only unknown faces are skipped.
            if face_id not in self._faces:
                continue
            entry.out_faces.add(face_id)
            entry.forwarded = True
            outgoing = interest.clone_for_forwarding() if delay or not is_new else interest
            total_delay = delay + self.config.forwarding_delay
            if total_delay > 0:
                self.sim.schedule_call(total_delay, self._forward_interest, outgoing, face_id)
            else:
                self._forward_interest(outgoing, face_id)

    def _forward_interest(self, interest: Interest, face_id: int) -> None:
        face = self._faces.get(face_id)
        if face is None:
            return
        # The Interest may already have been satisfied while the forwarding
        # delay elapsed; in that case there is no point putting it on the air.
        if interest.name not in self.pit and not isinstance(face, AppFace):
            if interest.name in self.cs:
                return
        self.stats.interests_forwarded += 1
        face.send_interest(interest)

    def _check_expiry(self, name) -> None:
        entry = self.pit.get(name)
        if entry is None:
            return
        if entry.expiry <= self.sim.now:
            self.pit.remove(name)
            self.stats.pit_expirations += 1
            self.strategy.on_interest_expired(entry)
        else:
            self.sim.schedule_call(max(entry.expiry - self.sim.now, 0.0), self._check_expiry, name)

    # ---------------------------------------------------------- data pipeline
    def process_data(self, data: Data, incoming_face: Face) -> None:
        """Full Data processing pipeline (Figure 1, right half)."""
        self.stats.data_received += 1
        satisfied = self.pit.satisfy(data)
        if not satisfied:
            if self.strategy.should_cache_unsolicited(data):
                self.cs.insert(data)
            self.strategy.on_data_received(data, incoming_face.face_id)
            return

        self.cs.insert(data)
        downstream: set[int] = set()
        for entry in satisfied:
            downstream.update(entry.in_faces)
        # Data may legitimately go back out the (broadcast) face it arrived on:
        # that is how an intermediate node relays Data to the downstream hop.
        # Only echoing to the application face it came from is suppressed.
        if isinstance(incoming_face, AppFace):
            downstream.discard(incoming_face.face_id)
        for face_id in self.strategy.data_faces(data, incoming_face.face_id, downstream):
            self._send_data(data, face_id)
        self.strategy.on_data_received(data, incoming_face.face_id)

    def _send_data(self, data: Data, face_id: int) -> None:
        face = self._faces.get(face_id)
        if face is None:
            return
        if self.config.forwarding_delay > 0:
            self.sim.schedule_call(self.config.forwarding_delay, face.send_data, data)
        else:
            face.send_data(data)

    # ------------------------------------------------------------- accounting
    @property
    def state_size_bytes(self) -> int:
        """Approximate bytes of forwarder state (CS + PIT), for Table I."""
        return self.cs.size_bytes + self.pit.size_bytes
