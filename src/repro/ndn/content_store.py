"""Content Store (CS): the forwarder's in-network cache.

Received Data packets are cached and used to satisfy future Interests for the
same name — this is what lets pure forwarders serve overheard data and lets a
repository act as a persistent cache in the DAPES scenarios.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.ndn.name import Name, NameLike
from repro.ndn.packet import Data, Interest


class ContentStore:
    """An LRU cache of Data packets keyed by exact name."""

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Name, Data]" = OrderedDict()
        self._size_bytes = 0

    # --------------------------------------------------------------- queries
    def find(self, interest: Interest) -> Optional[Data]:
        """Return a cached Data satisfying ``interest``, or ``None``."""
        if interest.can_be_prefix:
            for name, data in self._entries.items():
                if interest.name.is_prefix_of(name):
                    self._entries.move_to_end(name)
                    return data
            return None
        data = self._entries.get(interest.name)
        if data is None:
            return None
        self._entries.move_to_end(interest.name)
        return data

    def __contains__(self, name: NameLike) -> bool:
        return Name(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------- mutation
    def insert(self, data: Data) -> None:
        """Insert (or refresh) a Data packet, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        name = data.name
        existing = self._entries.get(name)
        if existing is not None:
            self._entries.move_to_end(name)
            self._entries[name] = data
            self._size_bytes += data.wire_size - existing.wire_size
            return
        self._entries[name] = data
        self._size_bytes += data.wire_size
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._size_bytes -= evicted.wire_size

    def clear(self) -> None:
        self._entries.clear()
        self._size_bytes = 0

    # ------------------------------------------------------------ accounting
    @property
    def size_bytes(self) -> int:
        """Approximate memory held by cached Data (used for Table I proxies).

        Maintained incrementally on insert/evict: the periodic load sampler
        reads this for every peer, and summing the whole store there made
        state accounting the hottest path of the bitmap-heavy experiments.
        """
        return self._size_bytes
