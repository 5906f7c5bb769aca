"""Pending Interest Table (PIT).

The PIT records Interests that have been forwarded but not yet satisfied.  It
provides Interest aggregation (a second Interest for the same name is not
forwarded again), loop detection via nonces, and the reverse path for Data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest


@dataclass(slots=True)
class PitEntry:
    """State for one pending Interest name."""

    name: Name
    in_faces: Set[int] = field(default_factory=set)
    out_faces: Set[int] = field(default_factory=set)
    nonces: Set[int] = field(default_factory=set)
    expiry: float = 0.0
    forwarded: bool = False
    can_be_prefix: bool = False

    def matches(self, data: Data) -> bool:
        if self.can_be_prefix:
            return self.name.is_prefix_of(data.name)
        return self.name == data.name


class Pit:
    """The pending Interest table of one forwarder."""

    def __init__(self):
        self._entries: Dict[Name, PitEntry] = {}
        # Entries with can_be_prefix=True need a scan to match Data; exact
        # entries (the overwhelming majority) resolve with one dict lookup.
        self._prefix_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name) -> bool:
        return Name(name) in self._entries

    def get(self, name) -> Optional[PitEntry]:
        return self._entries.get(Name(name))

    def entries(self) -> List[PitEntry]:
        return list(self._entries.values())

    # ------------------------------------------------------------- insertion
    def insert(self, interest: Interest, incoming_face_id: int, now: float) -> tuple[PitEntry, bool, bool]:
        """Insert or aggregate ``interest``.

        Returns ``(entry, is_new, is_loop)``.  ``is_loop`` is ``True`` when
        the same nonce was already seen for this name, meaning the Interest
        looped back and must be dropped.
        """
        entry = self._entries.get(interest.name)
        if entry is None:
            entry = PitEntry(
                name=interest.name,
                expiry=now + interest.lifetime,
                can_be_prefix=interest.can_be_prefix,
            )
            entry.in_faces.add(incoming_face_id)
            entry.nonces.add(interest.nonce)
            self._entries[interest.name] = entry
            if entry.can_be_prefix:
                self._prefix_entries += 1
            return entry, True, False
        if interest.nonce in entry.nonces and incoming_face_id not in entry.in_faces:
            return entry, False, True
        if interest.nonce in entry.nonces and incoming_face_id in entry.in_faces:
            # Retransmission from the same face: refresh the expiry.
            entry.expiry = max(entry.expiry, now + interest.lifetime)
            return entry, False, False
        entry.in_faces.add(incoming_face_id)
        entry.nonces.add(interest.nonce)
        entry.expiry = max(entry.expiry, now + interest.lifetime)
        return entry, False, False

    # ------------------------------------------------------------ resolution
    def satisfy(self, data: Data) -> List[PitEntry]:
        """Remove and return every entry satisfied by ``data``."""
        if not self._prefix_entries:
            # Exact-match PIT: one dict lookup instead of a full scan.
            entry = self._entries.pop(data.name, None)
            return [entry] if entry is not None else []
        satisfied = [entry for entry in self._entries.values() if entry.matches(data)]
        for entry in satisfied:
            self.remove(entry.name)
        return satisfied

    def remove(self, name) -> Optional[PitEntry]:
        entry = self._entries.pop(Name(name), None)
        if entry is not None and entry.can_be_prefix:
            self._prefix_entries -= 1
        return entry

    # ------------------------------------------------------------ accounting
    @property
    def size_bytes(self) -> int:
        """Approximate memory held by PIT state (used for Table I proxies)."""
        total = 0
        for entry in self._entries.values():
            total += entry.name.wire_size + 8 * (len(entry.in_faces) + len(entry.out_faces) + len(entry.nonces)) + 16
        return total
