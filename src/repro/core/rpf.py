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

Both support starting the download at a random packet instead of the first
one, which increases the diversity of disseminated data (Fig. 9a).

The component is deliberately generic: any object implementing
:class:`FetchStrategy` can be plugged into a peer.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.bitmap import Bitmap


class FetchStrategy(ABC):
    """Decides which missing packets to request, and in which order."""

    def __init__(self, random_start: bool = True, rng: Optional[random.Random] = None):
        self.random_start = random_start
        self._rng = rng if rng is not None else random.Random(0)
        self._start_offset: Optional[int] = None

    # ------------------------------------------------------------------ API
    @abstractmethod
    def observe_bitmap(self, peer_id: str, bitmap: Bitmap, now: float) -> None:
        """Record a bitmap advertisement received from ``peer_id``."""

    @abstractmethod
    def forget_peer(self, peer_id: str) -> None:
        """Remove a disconnected peer's contribution (if the flavour keeps any)."""

    @abstractmethod
    def reset_encounter(self) -> None:
        """Called when the peer's neighbourhood empties (encounter over)."""

    @abstractmethod
    def known_bitmaps(self) -> List[Bitmap]:
        """The bitmaps currently contributing to rarity estimation."""

    @property
    def state_size_bytes(self) -> int:
        """Memory held across encounters (Table I proxy); none by default."""
        return 0

    def select(self, own: Bitmap, count: int, exclude: Iterable[int] = ()) -> List[int]:
        """Pick up to ``count`` missing packet indices to request next.

        ``exclude`` lists indices that already have an outstanding Interest.
        Packets are ordered by decreasing rarity; ties are broken by the
        (possibly rotated) sequence order so that peers that start at a
        random packet naturally spread over the collection.
        """
        if count <= 0:
            return []
        excluded = set(exclude)
        if excluded:
            missing = [index for index in own.missing() if index not in excluded]
        else:
            missing = own.missing()
        if not missing:
            return []
        bitmaps = self.known_bitmaps()
        size = own.size
        offset = self._start(size)
        if not bitmaps:
            # No knowledge yet: sequential from the start offset.
            if count == 1:
                # min() picks the first minimum in iteration order, exactly
                # like a stable sort's head — without sorting everything.
                return [min(missing, key=lambda index: (index - offset) % size)]
            return sorted(missing, key=lambda index: (index - offset) % size)[:count]
        # Rarity for every index in one pass over the bitmaps' set bits,
        # rather than len(missing) * len(bitmaps) Bitmap.get calls.  The key
        # is unchanged: rarity = len(bitmaps) - presence.
        presence = Bitmap.presence_counts(size, bitmaps)
        total = len(bitmaps)
        key = lambda index: (presence[index] - total, (index - offset) % size)  # noqa: E731
        if count == 1:
            return [min(missing, key=key)]
        return sorted(missing, key=key)[:count]

    def rarity_of(self, index: int) -> int:
        """Current rarity estimate of packet ``index``."""
        return Bitmap.rarity(index, self.known_bitmaps())

    # ------------------------------------------------------------- internals
    def _start(self, size: int) -> int:
        if not self.random_start:
            return 0
        if self._start_offset is None or self._start_offset >= size:
            self._start_offset = self._rng.randrange(size) if size else 0
        return self._start_offset


class LocalNeighborhoodRpf(FetchStrategy):
    """RPF across the peers currently within communication range."""

    def __init__(self, random_start: bool = True, rng: Optional[random.Random] = None):
        super().__init__(random_start=random_start, rng=rng)
        self._neighborhood: Dict[str, Bitmap] = {}

    def observe_bitmap(self, peer_id: str, bitmap: Bitmap, now: float) -> None:
        self._neighborhood[peer_id] = bitmap

    def forget_peer(self, peer_id: str) -> None:
        self._neighborhood.pop(peer_id, None)

    def reset_encounter(self) -> None:
        # The per-encounter list expires when peers disconnect: no long-term state.
        self._neighborhood.clear()

    def known_bitmaps(self) -> List[Bitmap]:
        return list(self._neighborhood.values())

    @property
    def neighborhood_size(self) -> int:
        return len(self._neighborhood)


class EncounterBasedRpf(FetchStrategy):
    """RPF based on the history of encountered peers in the swarm."""

    def __init__(
        self,
        history: int = 20,
        random_start: bool = True,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(random_start=random_start, rng=rng)
        if history < 1:
            raise ValueError("history must be >= 1")
        self.history = history
        self._encounters: "OrderedDict[str, Bitmap]" = OrderedDict()

    def observe_bitmap(self, peer_id: str, bitmap: Bitmap, now: float) -> None:
        # A repeat encounter updates the stored bitmap and refreshes recency.
        if peer_id in self._encounters:
            self._encounters.pop(peer_id)
        self._encounters[peer_id] = bitmap
        while len(self._encounters) > self.history:
            self._encounters.popitem(last=False)

    def forget_peer(self, peer_id: str) -> None:
        # Disconnection does not erase history: that is the point of this flavour.
        return None

    def reset_encounter(self) -> None:
        # History persists across encounters.
        return None

    def known_bitmaps(self) -> List[Bitmap]:
        return list(self._encounters.values())

    @property
    def remembered_peers(self) -> List[str]:
        return list(self._encounters)

    @property
    def state_size_bytes(self) -> int:
        """Memory used by the encounter history (Table I proxy)."""
        return sum(bitmap.wire_size for bitmap in self._encounters.values())


def make_fetch_strategy(
    name: str,
    random_start: bool = True,
    history: int = 20,
    rng: Optional[random.Random] = None,
) -> FetchStrategy:
    """Factory used by :class:`~repro.core.config.DapesConfig.rpf_strategy`."""
    if name == "local":
        return LocalNeighborhoodRpf(random_start=random_start, rng=rng)
    if name == "encounter":
        return EncounterBasedRpf(history=history, random_start=random_start, rng=rng)
    raise ValueError(f"unknown RPF strategy {name!r} (expected 'local' or 'encounter')")
