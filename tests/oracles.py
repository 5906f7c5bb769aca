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
  ``oracle_select`` is DAPES's rule before it ranked only packets a peer
  in range holds: it ranks a packet no kept bitmap holds rarest of all,
  so it still agrees with ``FetchStrategy.pick`` whenever a peer in range
  holds every candidate, or no kept bitmap holds any.
* :func:`oracle_pick` — ``FetchStrategy.pick``'s rule as a list scan: the
  candidates a peer in range holds, by presence count over every kept
  bitmap, else every candidate in rotated order.  :func:`oracle_missing`
  lists a bitmap's missing packets for all of these.
* :func:`oracle_presence_counts` and :func:`oracle_rarest` — the per-index
  presence list and the list-key ranking that ``Bitmap.rarest`` replaced
  with bit-sliced counting.  :func:`oracle_select` and :func:`oracle_pick`
  count through the first, and ``tests/test_bitmap.py`` judges
  ``Bitmap.rarest`` against the second, so no oracle shares code with the
  picker it judges.
* :class:`OracleDsdvRouting` and :class:`OracleDsrRouting` — the routing
  handlers before each learnt to cost what its message changes: DSDV's
  update handler allocating a fresh route per accepted entry, its expiry
  sweep on every call and its failure handler; DSR's Route Error and
  delivery-failure handlers pairing up every hop of every cached route.
  :class:`OracleEktaPeer` is Ekta's engine tick before it walked the
  missing pieces by masks (one ``file_of_piece`` per missing piece) and
  its per-piece held-file count.  :func:`old_baselines` swaps all three
  into the Bithoc and Ekta builders for whole-trial comparisons.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence
from unittest import mock

import repro.baselines.bithoc as bithoc_module
import repro.baselines.ekta as ekta_module
import repro.wireless.medium as medium_module
from repro.baselines.ekta import EktaPeer
from repro.core.bitmap import Bitmap
from repro.core.rpf import FetchStrategy
from repro.ip.packet import IpPacket
from repro.manet.dsdv import DsdvRoute, DsdvRouting
from repro.manet.dsr import RERR_BYTES, DsrRouting
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
    """The seed delivery schedule: one completion event per receiver.

    Each event settles a batch of one through the production loop, so a
    reception has one implementation and only the schedule differs.
    """

    def _schedule_delivery(self, airtime, batch) -> None:
        for entry in batch:
            self.sim.schedule_call(airtime, self._complete_transmission, [entry])


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


def oracle_missing(bitmap: Bitmap) -> List[int]:
    """The packets ``bitmap`` lacks, ascending (the deleted ``Bitmap.missing``, one ``get`` per packet)."""
    return [index for index in range(bitmap.size) if not bitmap.get(index)]


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
        missing = [index for index in oracle_missing(own) if index not in excluded]
    else:
        missing = oracle_missing(own)
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


def oracle_pick(
    strategy: FetchStrategy, own: Bitmap, exclude: Iterable[int], in_range: Iterable[str]
) -> Optional[int]:
    """The next packet to request: the rarest a peer in range holds, else the first.

    Rarity counts over every kept bitmap, availability only over the kept
    bitmaps of the peers in ``in_range``.  Both orders are the sequence
    order rotated to the strategy's start offset, which is drawn only when
    some packet is missing and not excluded.
    """
    excluded = set(exclude)
    missing = [index for index in oracle_missing(own) if index not in excluded]
    if not missing:
        return None
    size = own.size
    offset = strategy._start(size)
    kept = strategy._bitmaps
    presence = oracle_presence_counts(size, kept.values())
    available = oracle_presence_counts(size, [kept[peer] for peer in in_range if peer in kept])
    held = [index for index in missing if available[index] > 0]
    if held:
        return oracle_rarest(held, presence, len(kept), offset, size)
    return min(missing, key=lambda index: (index - offset) % size)


def oracle_rarity(index: int, bitmaps: Sequence[Bitmap]) -> int:
    """How many of ``bitmaps`` are missing packet ``index`` (higher = rarer)."""
    return sum(1 for bitmap in bitmaps if index >= bitmap.size or not bitmap.get(index))


def oracle_rarest_missing(own: Bitmap, neighbor_bitmaps: Dict[str, Bitmap], exclude=()) -> Optional[int]:
    """Rarest missing piece that at least one of ``neighbor_bitmaps`` holds."""
    excluded = set(exclude)
    candidates = [
        index
        for index in oracle_missing(own)
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


class OracleDsdvRouting(DsdvRouting):
    """DSDV whose handlers allocate per accepted entry and sweep on every call."""

    def _on_update(self, sender: str, payload, kind: str) -> None:
        if self.node is None:
            return
        _, entries = payload
        now = self.node.sim.now
        changed = False
        for destination, metric, sequence in entries:
            if destination == self.node.node_id:
                continue
            new_metric = metric + 1
            current = self._routes.get(destination)
            accept = False
            if current is None:
                accept = True
            elif sequence > current.sequence:
                accept = True
            elif sequence == current.sequence and new_metric < current.metric:
                accept = True
            if accept:
                if current is None or current.next_hop != sender or current.metric != new_metric:
                    changed = True
                self._routes[destination] = DsdvRoute(
                    destination=destination,
                    next_hop=sender,
                    metric=new_metric,
                    sequence=sequence,
                    installed_at=now,
                )
        if changed:
            self._trigger_update()

    def on_delivery_failure(self, packet: IpPacket, next_hop: str) -> None:
        invalidated = False
        for destination in list(self._routes):
            route = self._routes[destination]
            if route.next_hop == next_hop:
                del self._routes[destination]
                invalidated = True
        if invalidated:
            self._trigger_update()

    def _expire_routes(self) -> None:
        if self.node is None:
            return
        now = self.node.sim.now
        stale = [
            destination
            for destination, route in self._routes.items()
            if now - route.installed_at > self.route_lifetime
        ]
        for destination in stale:
            del self._routes[destination]


class OracleDsrRouting(DsrRouting):
    """DSR whose link purges pair up every hop of every cached route."""

    def on_delivery_failure(self, packet: IpPacket, next_hop: str) -> None:
        broken = (self.node.node_id, next_hop)
        for destination in list(self._cache):
            route = self._cache[destination].route
            for hop_a, hop_b in zip(route, route[1:]):
                if (hop_a, hop_b) == broken:
                    del self._cache[destination]
                    break
        self.node.broadcast(("rerr", broken), RERR_BYTES, kind="dsr-rerr")
        if packet.src == self.node.node_id:
            self.on_no_route(packet)

    def _on_rerr(self, sender: str, payload, kind: str) -> None:
        _, broken = payload
        hop_a, hop_b = broken
        for destination in list(self._cache):
            route = self._cache[destination].route
            for a, b in zip(route, route[1:]):
                if (a, b) == (hop_a, hop_b):
                    del self._cache[destination]
                    break


class OracleEktaPeer(EktaPeer):
    """Ekta walking its missing pieces one ``file_of_piece`` at a time."""

    def _held_files(self) -> List[int]:
        held = []
        per_file = self.descriptor.pieces_per_file
        for file_index in range(self.descriptor.files):
            start = file_index * per_file
            end = min(start + per_file, self.descriptor.total_pieces)
            if start >= self.descriptor.total_pieces:
                break
            have = sum(1 for i in range(start, end) if self.bitmap.get(i))
            if have * 4 >= (end - start):
                held.append(file_index)
        return held

    def _engine_tick(self) -> None:
        self.load.activation()
        if self.is_complete or not self.interested:
            return
        now = self.sim.now
        for piece in list(self._outstanding):
            provider, sent_at = self._outstanding[piece]
            if now - sent_at > self.request_timeout:
                del self._outstanding[piece]
                self.load.retransmissions += 1
                file_index = self.descriptor.file_of_piece(piece)
                providers = self._providers.get(file_index, [])
                if provider in providers and len(providers) > 1:
                    providers.remove(provider)

        for file_index in list(self._pending_lookups):
            if now - self._pending_lookups[file_index].sent_at > self.lookup_timeout:
                del self._pending_lookups[file_index]

        missing = [p for p in oracle_missing(self.bitmap) if p not in self._outstanding]
        refreshed: set = set()
        for piece in missing:
            if len(self._outstanding) >= self.pipeline_size:
                break
            file_index = self.descriptor.file_of_piece(piece)
            providers = self._providers.get(file_index)
            if not providers:
                if file_index not in self._pending_lookups:
                    self._lookup_file(file_index)
                continue
            if file_index not in refreshed and file_index not in self._pending_lookups:
                if self._rng.random() < 0.2:
                    self._lookup_file(file_index)
                refreshed.add(file_index)
            provider = self._pick_provider(providers)
            self._request_piece(piece, provider)


@contextmanager
def old_baselines():
    """Build every Bithoc and Ekta node inside the block from the oracle classes above.

    Fails when the block built none of them, so a run that bypassed the
    builders cannot pass silently.
    """
    used = set()

    def counting(name, cls):
        def build(*args, **kwargs):
            used.add(name)
            return cls(*args, **kwargs)

        return build

    patches = [
        mock.patch.object(bithoc_module, "DsdvRouting", counting("dsdv", OracleDsdvRouting)),
        mock.patch.object(ekta_module, "DsrRouting", counting("dsr", OracleDsrRouting)),
        mock.patch.object(ekta_module, "EktaPeer", counting("ekta", OracleEktaPeer)),
    ]
    for patch in patches:
        patch.start()
    try:
        yield
    finally:
        for patch in reversed(patches):
            patch.stop()
    if not used:
        raise AssertionError("old_baselines() was entered but no Bithoc or Ekta node was built")
