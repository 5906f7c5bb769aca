"""Shared scaffolding for the IP-based swarm peers (Bithoc, Ekta).

Both baselines assume BitTorrent-style out-of-band metadata (a torrent
file): the collection identifier, the number of pieces and the piece size
are known to every member of the swarm before the experiment starts, as is
the swarm membership itself (the paper's Bithoc/Ekta experiments likewise
pre-configure the downloading nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.bitmap import Bitmap
from repro.core.stats import NodeLoadStats
from repro.simulation import Simulator

CompletionCallback = Callable[["IpSwarmPeer", str, float], None]


@dataclass(frozen=True)
class SwarmDescriptor:
    """The out-of-band description of one shared collection (the "torrent")."""

    collection_id: str
    total_pieces: int
    piece_size: int
    files: int = 1

    def __post_init__(self) -> None:
        if self.total_pieces <= 0 or self.piece_size <= 0:
            raise ValueError("total_pieces and piece_size must be positive")
        if self.files <= 0:
            raise ValueError("files must be positive")

    @property
    def pieces_per_file(self) -> int:
        return max(1, -(-self.total_pieces // self.files))

    def file_of_piece(self, piece: int) -> int:
        """Index of the file a piece belongs to (Ekta publishes per file)."""
        if not 0 <= piece < self.total_pieces:
            raise IndexError(f"piece {piece} out of range")
        return piece // self.pieces_per_file


class IpSwarmPeer:
    """Base class for a baseline peer participating in one swarm."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        descriptor: SwarmDescriptor,
        seed_all: bool = False,
    ):
        self.sim = sim
        self.node_id = node_id
        self.descriptor = descriptor
        self.bitmap = Bitmap(descriptor.total_pieces)
        if seed_all:
            for index in range(descriptor.total_pieces):
                self.bitmap.set(index)
        self.swarm_members: List[str] = []
        self.load = NodeLoadStats()
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self._completion_callbacks: List[CompletionCallback] = []
        self.interested = not seed_all

    # ----------------------------------------------------------------- swarm
    def set_swarm(self, members: List[str]) -> None:
        """Install the list of swarm members (everyone sharing this collection)."""
        self.swarm_members = [member for member in members if member != self.node_id]

    def on_complete(self, callback: CompletionCallback) -> None:
        self._completion_callbacks.append(callback)

    # ---------------------------------------------------------------- pieces
    def has_piece(self, index: int) -> bool:
        return self.bitmap.get(index)

    def add_piece(self, index: int) -> bool:
        """Mark a piece as received; returns ``True`` if it was new."""
        if self.bitmap.get(index):
            return False
        self.bitmap.set(index)
        self.load.packets_downloaded += 1
        if self.bitmap.is_complete() and self.completion_time is None:
            self.completion_time = self.sim.now
            for callback in self._completion_callbacks:
                callback(self, self.descriptor.collection_id, self.sim.now)
        return True

    @property
    def is_complete(self) -> bool:
        return self.bitmap.is_complete()

    def progress(self) -> float:
        return self.bitmap.count() / self.descriptor.total_pieces

    def download_time(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - (self.start_time or 0.0)

    # ------------------------------------------------------------- selection
    def holders_of(self, index: int, neighbor_bitmaps: Dict[str, Bitmap]) -> List[str]:
        """Neighbours whose bitmap shows they hold ``index``."""
        return [
            peer
            for peer, bitmap in neighbor_bitmaps.items()
            if index < bitmap.size and bitmap.get(index)
        ]
