"""Forwarding strategies.

A strategy decides, for every Interest the forwarder accepts, which faces to
forward it to and after what delay.  The paper's multi-hop design maps to
strategies directly:

* peers and repositories use multicast between their application face and
  the wireless face;
* *pure forwarders* (NDN-only nodes without the DAPES application) use
  :class:`ProbabilisticSuppressionStrategy` — they re-broadcast a fraction of
  received Interests after a random wait, serve overheard Data from their CS,
  and suppress names that recently failed to bring Data back;
* nodes running DAPES use :class:`~repro.core.intermediate.DapesForwardingStrategy`,
  which extends :class:`ProbabilisticSuppressionStrategy` with knowledge
  rules and falls back to its draw and suppression for unknown names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.ndn.pit import PitEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ndn.forwarder import Forwarder

# (face_id, delay_seconds) pairs returned by strategies.
ForwardingDecision = List[Tuple[int, float]]


class ForwardingStrategy:
    """Base strategy: never forwards anything."""

    def __init__(self):
        self.forwarder: Optional["Forwarder"] = None

    def attach(self, forwarder: "Forwarder") -> None:
        """Called by the forwarder when the strategy is installed."""
        self.forwarder = forwarder

    # ------------------------------------------------------------------ hooks
    def decide_interest_forwarding(
        self, interest: Interest, incoming_face_id: int, entry: PitEntry, is_new: bool
    ) -> ForwardingDecision:
        """Return the faces (and delays) to forward ``interest`` to."""
        return []

    def data_faces(self, data: Data, incoming_face_id: int, downstream: set[int]) -> set[int]:
        """The faces, of those its satisfied PIT entries came in on, that get ``data``."""
        return downstream

    def on_data_received(self, data: Data, incoming_face_id: int) -> None:
        """Called whenever Data (solicited or not) is received."""

    def on_interest_expired(self, entry: PitEntry) -> None:
        """Called when a PIT entry expires without being satisfied."""

    def should_cache_unsolicited(self, data: Data) -> bool:
        """Whether unsolicited (overheard) Data should be cached."""
        return False


class MulticastStrategy(ForwardingStrategy):
    """Forward every accepted Interest to every other face.

    The forwarder's default strategy: Interests from an application go out
    every other face, Interests from the air reach the application.
    """

    def decide_interest_forwarding(self, interest, incoming_face_id, entry, is_new):
        if not is_new and entry.forwarded:
            return []
        return [
            (face_id, 0.0)
            for face_id in self.forwarder.face_ids()
            if face_id != incoming_face_id
        ]


class ProbabilisticSuppressionStrategy(ForwardingStrategy):
    """The pure-forwarder behaviour of Section V-A.

    * Overheard Data is cached so future Interests can be served from the CS.
    * A received Interest is re-broadcast with probability
      ``forward_probability`` after a random wait in
      ``[min_wait, max_wait]`` — the wait avoids collisions and gives nodes
      that actually hold the Data a chance to answer first.
    * If a forwarded Interest brings no Data back before its PIT entry
      expires, the name prefix is *suppressed* for ``suppression_timeout``
      seconds: further Interests for it are not forwarded.  Receiving Data
      under a suppressed prefix clears the suppression (the Data evidently is
      reachable again).
    """

    # Name of the per-node random stream (``<RNG_STREAM>.<node id>``).
    RNG_STREAM = "strategy.pure"

    def __init__(
        self,
        forward_probability: float = 0.2,
        min_wait: float = 0.005,
        max_wait: float = 0.050,
        suppression_timeout: float = 10.0,
        suppression_prefix_length: int = 1,
    ):
        super().__init__()
        if not 0.0 <= forward_probability <= 1.0:
            raise ValueError("forward_probability must be within [0, 1]")
        if min_wait < 0 or max_wait < min_wait:
            raise ValueError("wait bounds must satisfy 0 <= min_wait <= max_wait")
        self.forward_probability = forward_probability
        self.min_wait = min_wait
        self.max_wait = max_wait
        self.suppression_timeout = suppression_timeout
        self.suppression_prefix_length = suppression_prefix_length
        # Keyed by the leading name components (see _suppression_key): the
        # raw tuple serves as well as a Name prefix without allocating one
        # per heard frame.
        self._suppressed_until: dict[tuple, float] = {}
        self._rng = None

    def attach(self, forwarder) -> None:
        super().attach(forwarder)
        self._rng = forwarder.sim.rng(f"{self.RNG_STREAM}.{forwarder.node_id}")

    # ------------------------------------------------------------------ hooks
    def decide_interest_forwarding(self, interest, incoming_face_id, entry, is_new):
        if not is_new and entry.forwarded:
            return []
        delay = None if self._is_suppressed(interest.name) else self._probabilistic_delay()
        if delay is None:
            return []
        # A pure forwarder typically has a single (broadcast) face: the
        # re-broadcast goes back out the face the Interest arrived on.
        return [(face_id, delay) for face_id in self.forwarder.face_ids()]

    def on_data_received(self, data, incoming_face_id):
        self._suppressed_until.pop(self._suppression_key(data.name), None)

    def on_interest_expired(self, entry):
        if entry.forwarded:
            key = self._suppression_key(entry.name)
            self._suppressed_until[key] = self.forwarder.sim.now + self.suppression_timeout

    def should_cache_unsolicited(self, data):
        return True

    # --------------------------------------------------------------- internal
    def _probabilistic_delay(self) -> Optional[float]:
        """A random wait with probability ``forward_probability``, else ``None``."""
        if self._rng.random() < self.forward_probability:
            return self._random_wait()
        return None

    def _random_wait(self) -> float:
        return self._rng.uniform(self.min_wait, self.max_wait)

    def _suppression_key(self, name: Name) -> tuple:
        return name[:self.suppression_prefix_length]

    def _is_suppressed(self, name: Name) -> bool:
        key = self._suppression_key(name)
        until = self._suppressed_until.get(key)
        if until is None:
            return False
        if until <= self.forwarder.sim.now:
            del self._suppressed_until[key]
            return False
        return True

    @property
    def suppressed_prefixes(self) -> list[Name]:
        """Currently suppressed prefixes (for tests and diagnostics)."""
        now = self.forwarder.sim.now if self.forwarder else 0.0
        return [Name(key) for key, until in self._suppressed_until.items() if until > now]
