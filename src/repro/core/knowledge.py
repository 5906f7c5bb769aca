"""Short-lived knowledge about the data available around a node (Section V).

DAPES nodes overhear bitmap exchanges, Interests and Data transmissions from
their neighbours and keep *short-lived* records of (i) which neighbour holds
which packets of which collection, and (ii) which collections neighbours are
interested in.  Intermediate nodes use this knowledge to decide whether
forwarding a received Interest is likely to bring data back; peers use it to
know what is available around them.

Entries expire after ``timeout`` seconds — the knowledge is deliberately
ephemeral because neighbours move.

Records are indexed per collection: the hot queries (``someone_has_packet``
on every forwarded Interest, ``neighbors_with_collection`` on every pipeline
fill) touch only the records of the collection in question instead of
scanning the whole store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.bitmap import Bitmap
from repro.core.config import KNOWLEDGE_TIMEOUT


@dataclass(slots=True)
class _NeighborRecord:
    """What is known about one neighbour for one collection."""

    bitmap: Optional[Bitmap] = None
    interested: bool = False
    last_update: float = 0.0


class NeighborKnowledge:
    """Per-node store of overheard neighbour state."""

    def __init__(self, timeout: float = KNOWLEDGE_TIMEOUT):
        self.timeout = timeout
        # collection -> neighbour -> record (insertion-ordered both levels,
        # matching the historical flat-dict iteration order per collection).
        self._by_collection: Dict[str, Dict[str, _NeighborRecord]] = {}
        # Names for which Data was recently overheard (data is nearby).
        self._recent_data: Dict[str, float] = {}

    # --------------------------------------------------------------- updates
    def _record(self, collection: str, neighbor: str) -> _NeighborRecord:
        records = self._by_collection.get(collection)
        if records is None:
            records = self._by_collection[collection] = {}
        record = records.get(neighbor)
        if record is None:
            record = records[neighbor] = _NeighborRecord()
        return record

    def observe_bitmap(self, neighbor: str, collection: str, bitmap: Bitmap, now: float) -> None:
        """Record a neighbour's advertised bitmap for a collection."""
        record = self._record(collection, neighbor)
        record.bitmap = bitmap
        record.interested = True
        record.last_update = now

    def observe_interest(self, neighbor: str, collection: str, now: float) -> None:
        """Record that a neighbour requested data of ``collection`` (it is interested)."""
        record = self._record(collection, neighbor)
        record.interested = True
        record.last_update = now

    def observe_data(self, collection: str, packet_index: Optional[int], now: float) -> None:
        """Record that Data of ``collection`` was recently heard nearby."""
        recent = self._recent_data
        if packet_index is not None:
            recent[f"{collection}#{packet_index}"] = now
        recent[collection] = now

    def forget_neighbor(self, neighbor: str) -> None:
        """Drop everything known about a departed neighbour."""
        emptied = []
        for collection, records in self._by_collection.items():
            records.pop(neighbor, None)
            if not records:
                emptied.append(collection)
        for collection in emptied:
            del self._by_collection[collection]

    # --------------------------------------------------------------- queries
    def _fresh(self, record: _NeighborRecord, now: float) -> bool:
        return now - record.last_update <= self.timeout

    def neighbors_with_collection(self, collection: str, now: float) -> List[str]:
        """Neighbours known to be interested in (or holding data of) ``collection``."""
        records = self._by_collection.get(collection)
        if not records:
            return []
        cutoff = now - self.timeout
        return [
            neighbor
            for neighbor, record in records.items()
            if record.last_update >= cutoff
        ]

    def neighbor_bitmap(self, neighbor: str, collection: str, now: float) -> Optional[Bitmap]:
        records = self._by_collection.get(collection)
        record = records.get(neighbor) if records else None
        if record is None or not self._fresh(record, now):
            return None
        return record.bitmap

    def someone_has_packet(
        self, collection: str, packet_index: int, now: float, exclude: Set[str] = frozenset()
    ) -> bool:
        """Whether some fresh neighbour bitmap shows ``packet_index`` as present."""
        records = self._by_collection.get(collection)
        if not records:
            return False
        cutoff = now - self.timeout
        for neighbor, record in records.items():
            if neighbor in exclude:
                continue
            bitmap = record.bitmap
            if bitmap is None or record.last_update < cutoff:
                continue
            if 0 <= packet_index < bitmap.size and bitmap.get(packet_index):
                return True
        return False

    def data_recently_heard(self, collection: str, now: float, packet_index: Optional[int] = None) -> bool:
        """Whether Data of ``collection`` (or a specific packet) was heard within the timeout."""
        key = collection if packet_index is None else f"{collection}#{packet_index}"
        timestamp = self._recent_data.get(key)
        if timestamp is None and packet_index is not None:
            timestamp = self._recent_data.get(collection)
        return timestamp is not None and now - timestamp <= self.timeout

    def knows_collection(self, collection: str, now: float) -> bool:
        """Whether anything fresh is known about ``collection``."""
        if self.data_recently_heard(collection, now):
            return True
        records = self._by_collection.get(collection)
        if not records:
            return False
        cutoff = now - self.timeout
        return any(record.last_update >= cutoff for record in records.values())

    # ------------------------------------------------------------- housekeeping
    def prune(self, now: float) -> int:
        """Remove expired records; returns how many were dropped."""
        cutoff = now - self.timeout
        dropped = 0
        emptied = []
        for collection, records in self._by_collection.items():
            stale = [
                neighbor
                for neighbor, record in records.items()
                if record.last_update < cutoff
            ]
            for neighbor in stale:
                del records[neighbor]
            dropped += len(stale)
            if not records:
                # Without this, a long-lived node accumulates one empty dict
                # per collection it ever heard of.
                emptied.append(collection)
        for collection in emptied:
            del self._by_collection[collection]
        stale_data = [key for key, timestamp in self._recent_data.items() if now - timestamp > self.timeout]
        for key in stale_data:
            del self._recent_data[key]
        return dropped + len(stale_data)

    @property
    def state_size_bytes(self) -> int:
        """Memory held by the knowledge store (Table I memory proxy)."""
        total = 0
        for records in self._by_collection.values():
            for record in records.values():
                total += 64
                if record.bitmap is not None:
                    total += record.bitmap.wire_size
        total += 32 * len(self._recent_data)
        return total

    def __len__(self) -> int:
        return sum(len(records) for records in self._by_collection.values())
