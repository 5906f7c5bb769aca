"""Test oracles: the reference implementations the equivalence tests use.

Production code has one neighbour index (the grid of
:mod:`repro.wireless.spatial`) and one delivery schedule (one completion
event per transmission in :mod:`repro.wireless.medium`).  Their reference
twins live here, on the test side, so no config field selects them:

* :class:`BruteForceNeighborIndex` — an O(N) scan over every attached radio,
  exactly what the medium did historically.  It remembers nothing between
  queries, which makes it the oracle for the grid's cells and remembered
  neighbour sets.
* :class:`PerReceiverMedium` — a :class:`WirelessMedium` that schedules one
  event per receiver (the seed schedule), the oracle for batched delivery.
* :func:`oracle` — a context manager that builds every medium a trial or a
  serial spec run constructs inside it with either oracle swapped in.
* :func:`oracle_select` and :func:`oracle_rarest_missing` — the two
  rarest-first pickers as they were before both moved onto
  :meth:`repro.core.bitmap.Bitmap.rarest`: DAPES's ``select(own, count,
  exclude)`` list API and Bithoc's per-piece ``rarity`` sort.  Only their
  reads of the peer's state changed (``strategy._bitmaps`` for the deleted
  ``known_bitmaps()``, ``own`` for ``self.bitmap``), and ``oracle_rarity``
  counts a bitmap too short to cover a piece as lacking it.
* :func:`oracle_presence_counts` and :func:`oracle_rarest` — the per-index
  presence list and the list-key ranking that ``Bitmap.rarest`` replaced
  with bit-sliced counting.  :func:`oracle_select` counts through the
  first, and ``tests/test_bitmap.py`` judges ``Bitmap.rarest`` against the
  second, so no oracle shares code with the picker it judges.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence
from unittest import mock

import repro.wireless.medium as medium_module
from repro.core.bitmap import Bitmap
from repro.core.rpf import FetchStrategy
from repro.wireless import WirelessMedium
from repro.wireless.spatial import NeighborIndex


class BruteForceNeighborIndex(NeighborIndex):
    """Reference backend: compare against every attached radio."""

    def neighbors(self, node_id: str, radius: float, time: float) -> List[str]:
        position = self.mobility.position
        origin = position(node_id, time)
        origin_x, origin_y = origin.x, origin.y
        radius_sq = radius * radius
        nearby = []
        for other_id in self._attach_order:
            if other_id == node_id:
                continue
            other = position(other_id, time)
            dx = other.x - origin_x
            dy = other.y - origin_y
            if dx * dx + dy * dy <= radius_sq:
                nearby.append(other_id)
        return nearby


class PerReceiverMedium(WirelessMedium):
    """The seed delivery schedule: one completion event per receiver."""

    def _schedule_delivery(self, airtime, batch) -> None:
        for receiver_id, reception in batch:
            self.sim.schedule_call(airtime, self._complete_reception, receiver_id, reception)


#: The medium class of each delivery schedule, for worlds built by hand.
MEDIUM = {"batched": WirelessMedium, "per_receiver": PerReceiverMedium}


@contextmanager
def oracle(index: str = "grid", delivery: str = "batched"):
    """Swap the selected oracle(s) into every medium built inside the block.

    ``index="brute"`` makes every :class:`WirelessMedium` built in the block
    resolve neighbours with :class:`BruteForceNeighborIndex`;
    ``delivery="per_receiver"`` makes the scenario builders (every
    experiment's, Table I's included) build a :class:`PerReceiverMedium`.  The defaults select production
    code and patch nothing.  Only this process sees the swap, so run specs
    with ``workers=1``; a block that selected an oracle but built no medium
    with it fails, so a run that bypassed the swap cannot pass silently.
    """
    if index not in ("grid", "brute") or delivery not in MEDIUM:
        raise ValueError(f"unknown oracle selection index={index!r} delivery={delivery!r}")
    used = []

    def brute_index(config, mobility, max_range=None):
        used.append("index")
        return BruteForceNeighborIndex(mobility)

    def per_receiver_medium(*args, **kwargs):
        used.append("delivery")
        return PerReceiverMedium(*args, **kwargs)

    patches = []
    if index == "brute":
        patches.append(mock.patch.object(medium_module, "build_neighbor_index", brute_index))
    if delivery == "per_receiver":
        # ScenarioBuilder.world imports the medium class from its module when
        # it builds a world, so the module attribute is the seam.
        patches.append(mock.patch.object(medium_module, "WirelessMedium", per_receiver_medium))
    for patch in patches:
        patch.start()
    try:
        yield
    finally:
        for patch in reversed(patches):
            patch.stop()
    for selected, name in ((index == "brute", "index"), (delivery == "per_receiver", "delivery")):
        if selected and name not in used:
            raise AssertionError(f"oracle({name}=...) was selected but no medium used it")


def oracle_select(strategy: FetchStrategy, own: Bitmap, count: int, exclude: Iterable[int] = ()) -> List[int]:
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
    bitmaps = list(strategy._bitmaps.values())
    size = own.size
    offset = strategy._start(size)
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
    presence = oracle_presence_counts(size, bitmaps)
    total = len(bitmaps)
    key = lambda index: (presence[index] - total, (index - offset) % size)  # noqa: E731
    if count == 1:
        return [min(missing, key=key)]
    return sorted(missing, key=key)[:count]


def oracle_rarity(index: int, bitmaps: Sequence[Bitmap]) -> int:
    """How many of ``bitmaps`` are missing packet ``index`` (higher = rarer)."""
    return sum(1 for bitmap in bitmaps if index >= bitmap.size or not bitmap.get(index))


def oracle_rarest_missing(own: Bitmap, neighbor_bitmaps: Dict[str, Bitmap], exclude=()) -> Optional[int]:
    """Rarest missing piece that at least one of ``neighbor_bitmaps`` holds."""
    excluded = set(exclude)
    candidates = [
        index
        for index in own.missing()
        if index not in excluded
        and any(bitmap.get(index) for bitmap in neighbor_bitmaps.values() if index < bitmap.size)
    ]
    if not candidates:
        return None
    bitmaps = list(neighbor_bitmaps.values())
    candidates.sort(key=lambda index: (-oracle_rarity(index, bitmaps), index))
    return candidates[0]


def oracle_presence_counts(size: int, bitmaps: Iterable[Bitmap]) -> List[int]:
    """Per-index count of ``bitmaps`` holding each packet (indices below ``size`` only)."""
    counts = [0] * size
    for bitmap in bitmaps:
        for byte_index, byte in enumerate(bitmap.to_bytes()):
            base = byte_index << 3
            while byte:
                low = byte & -byte
                index = base + low.bit_length() - 1
                if index < size:
                    counts[index] += 1
                byte &= byte - 1
    return counts


def oracle_rarest(
    candidates: Iterable[int], presence: Sequence[int], total: int, offset: int, size: int
) -> Optional[int]:
    """The list-key rarest-first pick: fewest holders, then sequence order rotated to ``offset``."""
    return min(
        candidates,
        key=lambda index: (presence[index] - total, (index - offset) % size),
        default=None,
    )
