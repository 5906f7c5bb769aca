"""The spatial neighbor index of the wireless medium.

Every frame a node transmits must be delivered to the radios within WiFi
range at that moment, so neighbor resolution sits on the hottest path of the
whole simulator.  :class:`GridNeighborIndex` answers the query "which
attached radios are within ``radius`` metres of ``node_id`` at ``time``"
with a uniform-grid bucket index.  Node positions are snapshotted into
square cells and the snapshot stays valid for a window of simulated time; a
query only inspects the cells a disk of radius ``radius + speed_bound *
drift`` can touch, then filters candidates with exact positions.  Because
nodes cannot outrun the mobility model's
:meth:`~repro.mobility.base.MobilityModel.speed_bound`, the cell scan can
never miss a true neighbor: the grid returns exactly what an O(N) scan over
every attached radio would (the test suite's brute-force oracle in
``tests/oracles.py`` asserts this property-style).

The grid additionally *reuses* answers.  Queries arrive at ever-new
timestamps (one per transmission), so memoizing positions per timestamp
almost never hits; what does repeat is the *answer* — the same sender asks
again within milliseconds and nobody has moved across its range circle.  A
scan therefore also measures how far the closest node stands from the
circle (its *clearance*) and remembers the set until a *horizon*
``t0 + (clearance - hair) / (2 * speed_bound)``: sender and candidate each
move at most ``speed_bound * dt``, so their distance changes by at most
twice that and no node can cross the circle before the horizon.  A later
query by the same node, at the same radius and mobility version, inside
``[t0, horizon]`` returns the remembered set without touching the snapshot
or the mobility model (``reuse_hits`` / ``reuse_misses`` count the traffic).

Results are ordered by radio attach order so that reception events are
scheduled in a deterministic order, and the index never returns an object
it keeps: callers own the list they get.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.mobility.base import MobilityModel

#: Default validity window (simulated seconds) of one grid snapshot.
DEFAULT_REBUILD_INTERVAL = 1.0

#: Clearance (metres) by which a scan widens its exact-check ring, so that
#: every node the snapshot classifies unchecked stands at least this far
#: from the range circle and the remembered set outlives the timestamp.  A
#: constant, not a config field: the measured reuse hit rate has its knee
#: here (0 / 0.5 / 1 / 2 / 4 m: Ekta 24 / 64 / 67 / 68 / 69 %, Bithoc 36 / 75 /
#: 78 / 80 / 82 % — CHANGES.md, PR 13) while the ring, and with it the exact
#: checks a miss pays, keeps growing.
REUSE_CLEARANCE = 1.0


class NeighborIndex:
    """Base class: tracks attached node ids and answers range queries."""

    def __init__(self, mobility: MobilityModel):
        self.mobility = mobility
        self._attach_order: Dict[str, int] = {}
        self._next_sequence = 0
        self._node_ids_cache: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------ membership
    def attach(self, node_id: str) -> None:
        self._attach_order[node_id] = self._next_sequence
        self._next_sequence += 1
        self._node_ids_cache = None

    def detach(self, node_id: str) -> None:
        self._attach_order.pop(node_id, None)
        self._node_ids_cache = None

    @property
    def node_ids(self) -> Tuple[str, ...]:
        """Attached node ids (cached tuple, invalidated on attach/detach)."""
        if self._node_ids_cache is None:
            self._node_ids_cache = tuple(self._attach_order)
        return self._node_ids_cache

    # --------------------------------------------------------------- queries
    def neighbors(self, node_id: str, radius: float, time: float) -> List[str]:
        """Attached nodes within ``radius`` of ``node_id`` at ``time``.

        Excludes ``node_id`` itself; ordered by attach order.
        """
        raise NotImplementedError

    def metrics(self) -> Dict[str, float]:
        """Index counters for a run profile (a plain scan keeps none)."""
        return {}


class GridNeighborIndex(NeighborIndex):
    """Uniform-grid bucket index with a drift-bounded snapshot.

    Parameters
    ----------
    mobility:
        The mobility model shared with the medium.
    cell_size:
        Edge length of one square cell in metres.  A good default is the
        channel's WiFi range: a query then touches at most ~3x3 cells.
    rebuild_interval:
        How long (simulated seconds) one snapshot stays valid.  Larger
        values rebuild less often but scan wider rings (the slack grows with
        ``speed_bound * age``).
    """

    def __init__(
        self,
        mobility: MobilityModel,
        cell_size: float,
        rebuild_interval: float = DEFAULT_REBUILD_INTERVAL,
    ):
        super().__init__(mobility)
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if rebuild_interval <= 0:
            raise ValueError("rebuild_interval must be positive")
        self.cell_size = cell_size
        self.rebuild_interval = rebuild_interval
        # Bound methods hoisted out of the per-transmission query path.
        self._position_xy = mobility.position_xy
        self._positions_at = mobility.positions_at
        self._mobility_version = mobility.mobility_version
        # Buckets hold (attach_seq, node_id, x, y) so a query never touches
        # a per-candidate dict: coordinates and sort key travel with the id.
        self._cells: Dict[Tuple[int, int], List[Tuple[int, str, float, float]]] = {}
        self._snapshot_time: Optional[float] = None
        self._snapshot_speed = math.inf
        self._snapshot_version = -1
        self.rebuilds = 0
        # node_id -> (t0, horizon, radius, mobility_version, neighbor ids):
        # the last scan's answer and how long it provably stays the answer.
        self._remembered: Dict[str, Tuple[float, float, float, int, Tuple[str, ...]]] = {}
        self.reuse_hits = 0
        self.reuse_misses = 0

    # ------------------------------------------------------------ membership
    def attach(self, node_id: str) -> None:
        super().attach(node_id)
        self._snapshot_time = None
        self._remembered.clear()

    def detach(self, node_id: str) -> None:
        super().detach(node_id)
        self._snapshot_time = None
        self._remembered.clear()

    def metrics(self) -> Dict[str, float]:
        return {
            "spatial.snapshot_rebuilds": float(self.rebuilds),
            "spatial.reuse_hits": float(self.reuse_hits),
            "spatial.reuse_misses": float(self.reuse_misses),
        }

    # --------------------------------------------------------------- queries
    def neighbors(self, node_id: str, radius: float, time: float) -> List[str]:
        remembered = self._remembered.get(node_id)
        if (
            remembered is not None
            and remembered[0] <= time <= remembered[1]
            and remembered[2] == radius
            and remembered[3] == self._mobility_version()
        ):
            self.reuse_hits += 1
            return list(remembered[4])
        self.reuse_misses += 1
        found, clearance = self._scan(node_id, radius, time)
        # Nobody crosses the circle while the closest node's clearance (less
        # a hair for float rounding) outlasts the pair closing in at twice
        # the speed bound.  The scan left the snapshot current, so its speed
        # and version are the ones in force at ``time``; an unbounded speed
        # or a node on the circle leaves same-timestamp reuse only, a static
        # world reuses until the version moves.
        spare = clearance - 1e-9 * (1.0 + radius)
        speed = self._snapshot_speed
        if spare <= 0.0:
            horizon = time
        elif speed > 0.0:
            horizon = time + spare / (2.0 * speed)
        else:
            horizon = math.inf
        self._remembered[node_id] = (time, horizon, radius, self._snapshot_version, found)
        return list(found)

    def _scan(self, node_id: str, radius: float, time: float) -> Tuple[Tuple[str, ...], float]:
        """Answer from the snapshot: ``(neighbor ids, smallest clearance)``.

        The clearance is how far the node closest to the range circle stands
        from it (inside or outside), capped at :data:`REUSE_CLEARANCE`.
        """
        # Going straight to the model's leg-cached position_xy (bit-identical
        # floats, no Position allocation) is the cheapest way to both the
        # origin and the uncertain-ring exact checks below.
        position_xy = self._position_xy
        origin_x, origin_y = position_xy(node_id, time)
        # A candidate has drifted at most ``speed * age`` from its snapshot
        # position.  The epsilon widens the uncertain ring by a hair so float
        # rounding in that bound can never flip a borderline node past the
        # exact check; the clearance widens it so that the nodes classified
        # unchecked stand at least that far from the range circle.
        slack = self._ensure_snapshot(time) + 1e-9 * (1.0 + radius) + REUSE_CLEARANCE
        reach = radius + slack
        cell = self.cell_size
        min_cx = math.floor((origin_x - reach) / cell)
        max_cx = math.floor((origin_x + reach) / cell)
        min_cy = math.floor((origin_y - reach) / cell)
        max_cy = math.floor((origin_y + reach) / cell)
        # The snapshot distance thus classifies most nodes without touching
        # the mobility model: certainly in range below the inner ring,
        # certainly out beyond the outer ring, exact check between.
        inner = radius - slack
        inner_sq = inner * inner if inner > 0.0 else -1.0
        outer_sq = reach * reach
        radius_sq = radius * radius
        clearance = REUSE_CLEARANCE
        sqrt = math.sqrt
        cells = self._cells
        nearby = []
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                bucket = cells.get((cx, cy))
                if bucket is None:
                    continue
                for candidate in bucket:
                    other_id = candidate[1]
                    if other_id == node_id:
                        continue
                    dx = candidate[2] - origin_x
                    dy = candidate[3] - origin_y
                    snap_sq = dx * dx + dy * dy
                    if snap_sq <= inner_sq:
                        nearby.append(candidate)
                        continue
                    if snap_sq > outer_sq:
                        continue
                    other_x, other_y = position_xy(other_id, time)
                    dx = other_x - origin_x
                    dy = other_y - origin_y
                    exact_sq = dx * dx + dy * dy
                    if exact_sq <= radius_sq:
                        nearby.append(candidate)
                    gap = abs(sqrt(exact_sq) - radius)
                    if gap < clearance:
                        clearance = gap
        # Reception events must be scheduled in attach order regardless of
        # which cell a neighbor fell in, so runs match the reference backend;
        # the attach sequence leads each bucket tuple, so sorting the tuples
        # sorts by attach order without any key function.
        if len(nearby) > 1:
            nearby.sort()
        return tuple([candidate[1] for candidate in nearby]), clearance

    # -------------------------------------------------------------- internal
    def _ensure_snapshot(self, time: float) -> float:
        """(Re)build the snapshot if stale; return the current drift slack.

        Staleness has three triggers: age beyond the rebuild window, a
        mobility mutation (teleport / new node — the version check), or
        membership change (attach/detach reset ``_snapshot_time``).
        """
        snapshot_time = self._snapshot_time
        if snapshot_time is not None and self._mobility_version() == self._snapshot_version:
            age = abs(time - snapshot_time)
            if age == 0.0:
                return 0.0
            speed = self._snapshot_speed
            if math.isfinite(speed) and age <= self.rebuild_interval:
                return speed * age
        # An unbounded speed (no finite speed_bound) degrades gracefully to a
        # rebuild at every new timestamp with zero slack.
        self._rebuild(time)
        self._snapshot_time = time
        # The bound can only change when membership changes, which already
        # invalidates the snapshot — sampling it here keeps queries O(cells).
        self._snapshot_speed = self.mobility.speed_bound()
        self._snapshot_version = self._mobility_version()
        self.rebuilds += 1
        return 0.0

    def _rebuild(self, time: float) -> None:
        """Bucket every node's exact position at ``time``.

        The batched positions_at query avoids allocating one Position per
        node.
        """
        node_ids = self.node_ids
        coords = self._positions_at(node_ids, time)
        cell = self.cell_size
        floor = math.floor
        attach_order = self._attach_order
        cells: Dict[Tuple[int, int], List[Tuple[int, str, float, float]]] = {}
        for other_id, (x, y) in zip(node_ids, coords):
            key = (floor(x / cell), floor(y / cell))
            entry = (attach_order[other_id], other_id, x, y)
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [entry]
            else:
                bucket.append(entry)
        self._cells = cells


def build_neighbor_index(
    config, mobility: MobilityModel, max_range: Optional[float] = None
) -> GridNeighborIndex:
    """The grid index for a :class:`ChannelConfig`.

    ``max_range`` is the true reach of the configured propagation model
    (``ChannelConfig.max_range()``); the default grid cell is sized from it
    rather than from ``wifi_range``, which under-sizes cells for models
    that reach beyond the nominal range (e.g. ``log_distance``).
    """
    cell_size = config.index_cell_size
    if cell_size is None:
        cell_size = config.max_range() if max_range is None else max_range
    return GridNeighborIndex(
        mobility,
        cell_size=cell_size,
        rebuild_interval=config.index_rebuild_interval,
    )
