"""Adaptive forwarding/suppression for nodes running DAPES (Section V-B).

The :class:`DapesForwardingStrategy` is installed on every node that runs the
DAPES application — downloading peers, repositories and intermediate nodes
that merely relay.  It always bridges the wireless face and the application
face (so the local application sees and can answer Interests), and, when
multi-hop communication is enabled, additionally decides whether to
*re-broadcast* Interests received over the air:

* Interests for data the local application itself holds are never
  re-broadcast (the application will answer).
* Interests for data that, according to the node's short-lived knowledge,
  some other neighbour holds are forwarded — they are likely to bring the
  data back.
* Interests for collections the node knows nothing about fall back to the
  pure-forwarder behaviour: forward with a configurable probability after a
  random wait, and suppress a name prefix for a while when a forwarded
  Interest failed to bring data back.

The strategy extends the pure forwarders'
:class:`~repro.ndn.strategy.ProbabilisticSuppressionStrategy`: the draw, the
random wait and the suppression table are the base class's; this module adds
the face roles, the application hooks and the knowledge rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.knowledge import NeighborKnowledge
from repro.core.namespace import DapesNamespace
from repro.ndn.face import AppFace, BroadcastFace
from repro.ndn.packet import Data, Interest
from repro.ndn.strategy import ProbabilisticSuppressionStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.peer import DapesPeer


class DapesForwardingStrategy(ProbabilisticSuppressionStrategy):
    """Forwarding strategy of a node running the DAPES application."""

    RNG_STREAM = "strategy.dapes"

    def __init__(
        self,
        peer: Optional["DapesPeer"] = None,
        knowledge: Optional[NeighborKnowledge] = None,
        multi_hop: bool = True,
        forwarding_probability: float = 0.2,
        suppression_timeout: float = 10.0,
    ):
        super().__init__(
            forward_probability=forwarding_probability,
            suppression_timeout=suppression_timeout,
            suppression_prefix_length=2,
        )
        self.peer = peer
        self.knowledge = knowledge if knowledge is not None else NeighborKnowledge()
        self.multi_hop = multi_hop
        self.interests_rebroadcast = 0
        self._face_roles_version = -1
        self._app_faces_cache: list[int] = []
        self._broadcast_faces_cache: list[int] = []

    def attach(self, forwarder) -> None:
        super().attach(forwarder)
        self._face_roles_version = -1

    # ------------------------------------------------------------ face roles
    def _refresh_face_roles(self) -> None:
        # Face-role lists are consulted on every Interest; rebuild them only
        # when the forwarder's face set actually changed.
        self._app_faces_cache = [
            face.face_id for face in self.forwarder.faces() if isinstance(face, AppFace)
        ]
        self._broadcast_faces_cache = [
            face.face_id for face in self.forwarder.faces() if isinstance(face, BroadcastFace)
        ]
        self._face_roles_version = self.forwarder.faces_version

    def _app_face_ids(self) -> list[int]:
        if self._face_roles_version != self.forwarder.faces_version:
            self._refresh_face_roles()
        return self._app_faces_cache

    def _broadcast_face_ids(self) -> list[int]:
        if self._face_roles_version != self.forwarder.faces_version:
            self._refresh_face_roles()
        return self._broadcast_faces_cache

    # ----------------------------------------------------------------- hooks
    def decide_interest_forwarding(self, interest, incoming_face_id, entry, is_new):
        incoming_face = self.forwarder.face(incoming_face_id)
        # Let the application observe everything heard on the air (knowledge building).
        if self.peer is not None and isinstance(incoming_face, BroadcastFace):
            self.peer.observe_interest(interest)

        decision = []
        if isinstance(incoming_face, AppFace):
            # The local application is requesting (or deliberately
            # retransmitting): put the Interest on the air.  The application
            # owns its retransmission policy, so aggregation does not apply
            # to its own face.
            decision.extend((face_id, 0.0) for face_id in self._broadcast_face_ids())
            return decision

        # Interest arrived over the air: it always reaches the local application...
        if is_new:
            decision.extend((face_id, 0.0) for face_id in self._app_face_ids())
        # ...and may additionally be re-broadcast for multi-hop reach.
        if self.multi_hop and (is_new or not entry.forwarded):
            rebroadcast_delay = self._rebroadcast_delay(interest)
            if rebroadcast_delay is not None:
                decision.extend((face_id, rebroadcast_delay) for face_id in self._broadcast_face_ids())
                self.interests_rebroadcast += 1
            else:
                self.interests_suppressed += 1
        return decision

    def on_data_received(self, data: Data, incoming_face_id: int) -> None:
        face = self.forwarder.face(incoming_face_id)
        if self.peer is not None and isinstance(face, BroadcastFace):
            self.peer.observe_data(data)
        super().on_data_received(data, incoming_face_id)

    def on_interest_expired(self, entry) -> None:
        super().on_interest_expired(entry)
        if self.peer is not None:
            self.peer.on_pit_expired(entry)

    # -------------------------------------------------------------- decisions
    def _rebroadcast_delay(self, interest: Interest) -> Optional[float]:
        """Delay before re-broadcasting, or ``None`` to suppress."""
        if interest.hop_limit <= 1:
            return None
        name = interest.name
        now = self.forwarder.sim.now
        if self._is_suppressed(name):
            return None
        kind = DapesNamespace.classify(name)

        if kind == "collection-data":
            parsed = DapesNamespace.parse_packet_name(name)
            if parsed is None:
                return self._probabilistic_delay()
            if self.peer is not None and self.peer.has_packet(parsed.collection, name):
                return None  # the local application will answer
            index = self.peer.packet_index(parsed.collection, name) if self.peer else None
            if index is not None and self.knowledge.someone_has_packet(parsed.collection, index, now):
                # Some neighbour is known to hold the packet: forwarding is
                # likely to bring the data back (Section V-B, same collection).
                return self._random_wait()
            if index is not None and self.knowledge.data_recently_heard(parsed.collection, now, index):
                # The exact packet was recently heard nearby (it sits in
                # somebody's Content Store): forward.
                return self._random_wait()
            # No knowledge about the requested data: fall back to the pure
            # forwarders' probabilistic scheme (Section V-B, different
            # collection / no knowledge).
            return self._probabilistic_delay()

        if kind == "metadata":
            collection = DapesNamespace.metadata_collection(name)
            if self.peer is not None and self.peer.has_metadata(collection):
                return None
            if self.knowledge.knows_collection(collection, now):
                return self._random_wait()
            return self._probabilistic_delay()

        if kind == "bitmap":
            target = DapesNamespace.bitmap_target(name)
            if self.peer is not None and target == self.peer.node_id:
                return None  # addressed to us; the application answers
            collection = DapesNamespace.bitmap_collection(name)
            if self.knowledge.neighbor_bitmap(target, collection, now) is not None:
                return self._random_wait()
            return self._probabilistic_delay()

        # Discovery and anything else: purely probabilistic.
        return self._probabilistic_delay()
