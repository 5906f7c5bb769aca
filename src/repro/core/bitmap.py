"""Compact data advertisements (Section IV-D).

Each bit refers to one packet of a collection, ordered by the relative
position of the files in the metadata and of the packets within each file.
A set bit means the peer has the packet.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class Bitmap:
    """A fixed-length bitmap over the packets of one collection."""

    __slots__ = ("_bits", "_size", "_count")

    def __init__(self, size: int, set_bits: Iterable[int] = ()):  # noqa: D107
        if size < 0:
            raise ValueError("bitmap size must be non-negative")
        self._size = size
        self._bits = bytearray((size + 7) // 8)
        self._count = 0
        for index in set_bits:
            self.set(index)

    # --------------------------------------------------------------- basics
    @property
    def size(self) -> int:
        """Number of packets the bitmap covers."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range (size {self._size})")

    def set(self, index: int, value: bool = True) -> None:
        """Set (or clear) the bit for packet ``index``."""
        self._check(index)
        byte, offset = index >> 3, index & 7
        mask = 1 << offset
        present = self._bits[byte] & mask
        if value:
            if not present:
                self._bits[byte] |= mask
                self._count += 1
        elif present:
            self._bits[byte] &= ~mask
            self._count -= 1

    def get(self, index: int) -> bool:
        """Whether the peer has packet ``index``."""
        self._check(index)
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._size == other._size and self._bits == other._bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitmap({self.count()}/{self._size})"

    # ------------------------------------------------------------- counting
    def count(self) -> int:
        """Number of packets the peer has (maintained incrementally)."""
        return self._count

    def missing_count(self) -> int:
        """Number of packets the peer is missing."""
        return self._size - self.count()

    def is_complete(self) -> bool:
        """Whether every packet is present."""
        return self.count() == self._size

    def missing_mask(self, exclude: Iterable[int] = ()) -> int:
        """The missing packets not in ``exclude``, as one int (bit ``i`` = packet ``i``)."""
        mask = ~self.as_int() & ((1 << self._size) - 1)
        for index in exclude:
            mask &= ~(1 << index)
        return mask

    def all_set(self, start: int, stop: int) -> bool:
        """Whether every packet in ``range(start, stop)`` is present."""
        if not 0 <= start <= stop <= self._size:
            raise IndexError(f"bit range {start}:{stop} out of range (size {self._size})")
        full = (1 << (stop - start)) - 1
        window = int.from_bytes(self._bits[start >> 3 : (stop + 7) >> 3], "little") >> (start & 7)
        return window & full == full

    def as_int(self) -> int:
        """The bitmap as one int: bit ``i`` is set when packet ``i`` is present."""
        return int.from_bytes(self._bits, "little")

    # ----------------------------------------------------------- set algebra
    def union(self, other: "Bitmap") -> "Bitmap":
        """Packets present in either bitmap."""
        self._check_compatible(other)
        return self._from_int(self.as_int() | other.as_int())

    def difference(self, other: "Bitmap") -> "Bitmap":
        """Packets present here but missing from ``other``."""
        self._check_compatible(other)
        return self._from_int(self.as_int() & ~other.as_int())

    def _from_int(self, value: int) -> "Bitmap":
        """A bitmap of this size holding the packets set in ``value``."""
        result = Bitmap(self._size)
        result._bits = bytearray(value.to_bytes(len(self._bits), "little"))
        result._count = value.bit_count()
        return result

    def _recount(self) -> None:
        """Resynchronize the cached popcount after a bulk ``_bits`` rewrite."""
        self._count = self.as_int().bit_count()

    def _check_compatible(self, other: "Bitmap") -> None:
        if self._size != other._size:
            raise ValueError(f"bitmap sizes differ ({self._size} vs {other._size})")

    # ------------------------------------------------------------- encoding
    def to_bytes(self) -> bytes:
        """Compact wire encoding (one bit per packet)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, size: int, payload: bytes) -> "Bitmap":
        """Decode a bitmap of ``size`` packets from its wire encoding."""
        bitmap = cls(size)
        expected = (size + 7) // 8
        if len(payload) != expected:
            raise ValueError(f"expected {expected} bytes for a {size}-bit bitmap, got {len(payload)}")
        bitmap._bits = bytearray(payload)
        # Clear any padding bits beyond `size` so equality stays well defined.
        extra_bits = expected * 8 - size
        if extra_bits:
            bitmap._bits[-1] &= (1 << (8 - extra_bits)) - 1
        bitmap._recount()
        return bitmap

    @property
    def wire_size(self) -> int:
        """Encoded size in bytes."""
        return len(self._bits)

    def copy(self) -> "Bitmap":
        clone = Bitmap(self._size)
        clone._bits = bytearray(self._bits)
        clone._count = self._count
        return clone

    # -------------------------------------------------------------- helpers
    @staticmethod
    def rarest(candidates: int, bitmaps: Iterable["Bitmap"], offset: int = 0) -> Optional[int]:
        """The rarest of the ``candidates`` some known bitmap holds, or ``None`` if none is held.

        A packet's rarity is how many of the ``bitmaps`` lack it, and a
        candidate none holds is not ranked.  Ties go to :meth:`first` from
        ``offset``.  The count is bit-sliced: ``planes[k]`` holds the
        candidates whose number of holders has binary digit ``k`` set, and
        each bitmap is added into the planes with a ripple carry, so a pick
        costs a few whole-int operations per bitmap and none per packet.
        """
        if not candidates:
            return None
        planes: List[int] = []
        for bitmap in bitmaps:
            carry = bitmap.as_int() & candidates
            for digit, plane in enumerate(planes):
                if not carry:
                    break
                planes[digit] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        held = 0
        for plane in planes:  # a candidate is held when some plane has it set
            held |= plane
        candidates &= held
        # Most significant digit first: keep the candidates with a 0 there
        # whenever some exist, which leaves those with the fewest holders.
        for plane in reversed(planes):
            fewer = candidates & ~plane
            if fewer:
                candidates = fewer
        return Bitmap.first(candidates, offset)

    @staticmethod
    def first(candidates: int, offset: int = 0) -> Optional[int]:
        """The lowest packet set in ``candidates`` from ``offset`` on, else the lowest (``None`` if 0)."""
        later = candidates >> offset
        if later:
            return offset + (later & -later).bit_length() - 1
        return (candidates & -candidates).bit_length() - 1 if candidates else None

    @classmethod
    def full(cls, size: int) -> "Bitmap":
        """A bitmap with every packet present (producers, completed peers)."""
        return cls(size, set_bits=range(size))
