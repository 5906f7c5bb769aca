"""Region-sharded neighbor resolution: the 10-100x population path.

The paper evaluates DAPES swarms at 14-30 nodes; the ROADMAP north-star is a
production-scale system.  At 10-100x populations the single world-spanning
grid snapshot becomes the bottleneck twice over: every membership change
(churn arrival, departure, teleport) invalidates and rebuilds the *whole*
snapshot — O(N) work per churn event — and the rebuild itself is one serial
batch however many cores the machine has.

This module shards the world into K spatial regions so that

* membership changes invalidate only the region they touch (O(N/K) per
  churn event instead of O(N)),
* all K region snapshots can be rebuilt **concurrently** at each epoch
  barrier (threads release the GIL inside the NumPy batches; a process
  fallback exists for GIL-bound environments), and
* each region picks its own query strategy from its own bucket occupancy
  (a dense downtown region can vectorize while a sparse suburb stays
  scalar — see :class:`~repro.wireless.spatial.ArrayGridNeighborIndex`).

Determinism contract
--------------------
The shard key is geometric: the x-axis is cut into stripes of
``region_width`` metres and stripe ``i`` belongs to shard ``i mod K`` — the
same ``floor(x / width)`` arithmetic the grid index uses for cells, so grid
cells are the natural unit of shard ownership.  Membership is reassigned at
deterministic :class:`~repro.simulation.epochs.EpochClock` barriers from one
batched :meth:`~repro.mobility.base.MobilityModel.coordinates_at` call;
between barriers a node may drift out of its region by at most
``speed_bound * epoch``, so every query widens its stripe window by exactly
that slack and can never miss a true neighbor (the same drift argument the
grid snapshot makes for cells).

A transmission whose widened range disk overlaps a neighbouring region
queries that region too; the candidates it contributes are **boundary
events** — replicated reception records that the medium schedules through
the one global event heap, ordered by the same ``(time, seq)`` tuple keys as
every other event.  Because the union of per-region candidates equals the
unsharded candidate set and the merged list is re-sorted by global attach
order, a sharded serial run is *byte-identical* to the unsharded medium —
and because parallel snapshot builds write disjoint per-shard state from
pre-computed coordinates, serial and parallel sharded runs are byte-identical
too.  Both equivalences are asserted property-style in the test suite and on
every committed spec.
"""

from __future__ import annotations

import math
import warnings
from typing import Dict, List, Optional, Tuple

from repro.arrays import numpy_available, numpy_or_none
from repro.mobility.base import MobilityModel
from repro.simulation.epochs import EpochClock
from repro.wireless.channel import SHARD_EXECUTOR_MODES
from repro.wireless.spatial import (
    ArrayGridNeighborIndex,
    GridNeighborIndex,
    NeighborIndex,
)

__all__ = [
    "RegionPartition",
    "ShardExecutor",
    "ShardedNeighborIndex",
    "partition_for_config",
]

#: Executor modes for stepping shard snapshot builds at an epoch barrier.
SHARD_EXECUTORS = SHARD_EXECUTOR_MODES


class RegionPartition:
    """Deterministic world-to-shard geometry: x-stripes dealt modulo K.

    The x-axis is divided into stripes of ``region_width`` metres; stripe
    ``i`` (i.e. positions with ``floor(x / region_width) == i``) belongs to
    shard ``i mod shards``.  Modular striping keeps the mapping total over
    an unbounded world — mobility models may wander outside the nominal
    area — while ``region_width ~ area / shards`` gives each shard one
    contiguous region in practice.
    """

    __slots__ = ("shards", "region_width")

    def __init__(self, shards: int, region_width: float):
        if not isinstance(shards, int) or shards < 1:
            raise ValueError("shards must be a positive integer")
        if not (region_width > 0.0 and math.isfinite(region_width)):
            raise ValueError("region_width must be positive and finite")
        self.shards = shards
        self.region_width = region_width

    def stripe_of(self, x: float) -> int:
        """Index of the stripe containing coordinate ``x``."""
        return math.floor(x / self.region_width)

    def shard_of(self, x: float) -> int:
        """Owning shard of coordinate ``x``."""
        return self.stripe_of(x) % self.shards

    def shards_overlapping(self, x: float, reach: float) -> Tuple[int, ...]:
        """Shards whose stripes intersect ``[x - reach, x + reach]``.

        Ascending shard ids — a deterministic scan order independent of the
        query position, so sharded runs replay identically.
        """
        lo = math.floor((x - reach) / self.region_width)
        hi = math.floor((x + reach) / self.region_width)
        if hi - lo + 1 >= self.shards:
            return tuple(range(self.shards))
        return tuple(sorted({stripe % self.shards for stripe in range(lo, hi + 1)}))


# ---------------------------------------------------------------------------
# Snapshot build kernels.  Module-level pure functions of plain data so the
# process executor can pickle them; the thread executor benefits too (the
# NumPy kernel releases the GIL, so K shards genuinely build concurrently).
def _build_scalar_cells(
    entries: List[Tuple[int, str, float, float]], cell_size: float
) -> Dict[Tuple[int, int], List[Tuple[int, str, float, float]]]:
    """Bucket ``(seq, id, x, y)`` entries into grid cells (scalar layout)."""
    floor = math.floor
    cells: Dict[Tuple[int, int], List[Tuple[int, str, float, float]]] = {}
    for entry in entries:
        key = (floor(entry[2] / cell_size), floor(entry[3] / cell_size))
        bucket = cells.get(key)
        if bucket is None:
            cells[key] = [entry]
        else:
            bucket.append(entry)
    return cells


def _build_array_codes(pos, cell_size: float):
    """Sorted cell codes + row permutation for the array snapshot layout.

    Mirrors :meth:`ArrayGridNeighborIndex._rebuild` exactly — same floor,
    same injective encoding, same stable argsort — so an installed parallel
    build is indistinguishable from a serial one.
    """
    np = numpy_or_none()
    cells = np.floor(pos / cell_size).astype(np.int64)
    codes = cells[:, 0] * ArrayGridNeighborIndex._CELL_STRIDE + cells[:, 1]
    rows = np.argsort(codes, kind="stable")
    return codes[rows], rows


class ShardExecutor:
    """Steps per-shard work at an epoch barrier: serial, threads or processes.

    ``thread`` (the default for ``shard_workers > 1``) is the right mode on
    CPython: the snapshot kernels release the GIL inside NumPy and the
    per-shard state they write is disjoint.  ``process`` is the fallback for
    GIL-bound scalar builds — correctness-identical, but it pays pickling
    and pool startup per barrier, so it only wins when per-shard work is
    large.  Any pool failure (sandboxed environments without threads or
    semaphores) degrades to ``serial`` with one :class:`RuntimeWarning`;
    results are byte-identical in every mode because tasks are pure
    functions of pre-computed inputs and install order is fixed.
    """

    def __init__(self, mode: str = "serial", workers: int = 1):
        if mode not in SHARD_EXECUTORS:
            raise ValueError(f"shard executor must be one of {SHARD_EXECUTORS}, got {mode!r}")
        self.mode = mode if workers > 1 else "serial"
        self.workers = max(1, workers)
        self._pool = None
        #: Barriers actually stepped in parallel (profiling).
        self.parallel_barriers = 0

    def run(self, tasks):
        """Execute ``[(fn, args), ...]``; return results in task order."""
        if self.mode == "thread":
            pool = self._thread_pool()
            if pool is not None:
                futures = [pool.submit(fn, *args) for fn, args in tasks]
                results = [future.result() for future in futures]
                self.parallel_barriers += 1
                return results
        elif self.mode == "process":
            results = self._run_process(tasks)
            if results is not None:
                self.parallel_barriers += 1
                return results
        return [fn(*args) for fn, args in tasks]

    def _thread_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            try:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
            except (RuntimeError, OSError) as exc:  # pragma: no cover - env specific
                warnings.warn(
                    f"shard thread pool unavailable ({exc}); stepping shards serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self.mode = "serial"
                return None
        return self._pool

    def _run_process(self, tasks):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = [pool.submit(fn, *args) for fn, args in tasks]
                return [future.result() for future in futures]
        except (OSError, ValueError, BrokenProcessPool) as exc:
            warnings.warn(
                f"shard process pool unavailable ({exc}); stepping shards serially",
                RuntimeWarning,
                stacklevel=3,
            )
            self.mode = "serial"
            return None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None


class ShardedNeighborIndex(NeighborIndex):
    """K region shards behind the one :class:`NeighborIndex` interface.

    Each shard owns a private :class:`GridNeighborIndex` (or the
    array-native subclass) over only its members, with the member's *global*
    attach sequence written through so that candidates merged across shards
    sort into exactly the order the unsharded backends produce.  See the
    module docstring for the determinism contract.
    """

    def __init__(
        self,
        mobility: MobilityModel,
        cell_size: float,
        shards: int,
        region_width: Optional[float] = None,
        epoch: float = 1.0,
        use_array: bool = False,
        scalar_query_limit: Optional[int] = None,
        workers: int = 1,
        executor: str = "thread",
    ):
        super().__init__(mobility)
        if shards < 1:
            raise ValueError("shards must be a positive integer")
        self.partition = RegionPartition(
            shards, cell_size if region_width is None else region_width
        )
        self.clock = EpochClock(epoch)
        self.cell_size = cell_size
        self.executor = ShardExecutor(executor, workers)
        self._position_xy = mobility.position_xy
        self._coordinates_at = mobility.coordinates_at
        self._use_array = use_array and numpy_available()
        if self._use_array:
            self._subs: List[GridNeighborIndex] = [
                ArrayGridNeighborIndex(
                    mobility, cell_size, rebuild_interval=epoch,
                    scalar_query_limit=scalar_query_limit,
                )
                for _ in range(shards)
            ]
        else:
            self._subs = [
                GridNeighborIndex(mobility, cell_size, rebuild_interval=epoch)
                for _ in range(shards)
            ]
        self._membership: Dict[str, int] = {}
        # Ordered set of nodes attached since the last barrier, assigned to
        # a shard lazily on the next query (attach carries no timestamp, so
        # the assignment position is only known once a query supplies one).
        self._pending: Dict[str, None] = {}
        self._epoch_speed = math.inf
        self._epoch_version: Optional[int] = None
        self._sync_time: Optional[float] = None
        # Per-shard boundary outboxes for the current epoch, merged (in
        # EpochClock.sequence order) at each barrier.
        self._outbox = [0] * shards
        # ------------------------------------------------- profiling counters
        self.boundary_queries = 0
        self.boundary_candidates = 0
        self.boundary_merged = 0
        self.shard_migrations = 0
        self.snapshot_builds = 0

    # ------------------------------------------------------------ membership
    def attach(self, node_id: str) -> None:
        super().attach(node_id)
        self._pending[node_id] = None

    def detach(self, node_id: str) -> None:
        super().detach(node_id)
        if node_id in self._pending:
            del self._pending[node_id]
            return
        shard = self._membership.pop(node_id, None)
        if shard is not None:
            self._subs[shard].detach(node_id)

    def shard_of(self, node_id: str) -> Optional[int]:
        """Current shard of ``node_id`` (``None`` if pending or detached)."""
        return self._membership.get(node_id)

    # ----------------------------------------------------- aggregate counters
    @property
    def rebuilds(self) -> int:
        return sum(sub.rebuilds for sub in self._subs)

    @property
    def array_rebuilds(self) -> int:
        return sum(getattr(sub, "array_rebuilds", 0) for sub in self._subs)

    @property
    def reuse_hits(self) -> int:
        return sum(sub.reuse_hits for sub in self._subs)

    @property
    def reuse_misses(self) -> int:
        return sum(sub.reuse_misses for sub in self._subs)

    @property
    def epoch_rolls(self) -> int:
        return self.clock.rolls

    @property
    def shards(self) -> int:
        return self.partition.shards

    def shard_populations(self) -> Tuple[int, ...]:
        """Member count per shard (pending nodes excluded) — for profiling."""
        counts = [0] * self.partition.shards
        for shard in self._membership.values():
            counts[shard] += 1
        return tuple(counts)

    # --------------------------------------------------------------- queries
    def neighbors(self, node_id: str, radius: float, time: float) -> List[str]:
        self._sync(time)
        origin_x, _ = self._position_xy(node_id, time)
        # Membership drift slack: a member may have moved this far from the
        # position that assigned its shard (same epsilon treatment as the
        # grid's uncertain ring, so borderline stripes are never skipped).
        slack = self._membership_slack() + 1e-9 * (1.0 + radius)
        if math.isfinite(slack):
            shard_ids = self.partition.shards_overlapping(origin_x, radius + slack)
        else:  # pragma: no cover - unbounded speed forces per-query rolls
            shard_ids = tuple(range(self.partition.shards))
        home = self._membership.get(node_id)
        subs = self._subs
        nearby: List[str] = []
        crossed = 0
        for shard in shard_ids:
            sub = subs[shard]
            if not sub._attach_order:
                continue
            found = sub.neighbors(node_id, radius, time)
            if found and shard != home:
                crossed += len(found)
                self._outbox[shard] += len(found)
            nearby.extend(found)
        if crossed:
            # Boundary event accounting: this transmission's range disk
            # reached beyond the sender's home region, so `crossed`
            # replicated reception records will be scheduled there.
            self.boundary_queries += 1
            self.boundary_candidates += crossed
        if len(nearby) > 1:
            # Global attach order, whatever shard (or per-shard snapshot
            # layout) each candidate came from — the byte-identity keystone.
            nearby.sort(key=self._attach_order.__getitem__)
        return nearby

    # -------------------------------------------------------------- internal
    def _membership_slack(self) -> float:
        speed = self._epoch_speed
        if not math.isfinite(speed):
            return math.inf
        return speed * self.clock.length

    def _sync(self, time: float) -> None:
        """Cross the epoch barrier (or assign pending arrivals) if due."""
        version = self.positions.mobility_version()
        if version != self._epoch_version:
            # Teleports void the drift bound; re-shard at the next query.
            self.clock.force_roll()
        elif not math.isfinite(self._epoch_speed) and time != self._sync_time:
            # Unbounded speed degrades to a re-shard at every new timestamp,
            # mirroring the grid snapshot's zero-slack degradation.
            self.clock.force_roll()
        elif self.clock.epoch >= 0 and self.clock.epoch_of(time) < self.clock.epoch:
            # Time-reversed query into an *earlier* epoch (the medium's event
            # loop never rewinds, but property tests replay histories in any
            # order): the membership positions are arbitrarily stale relative
            # to the queried time, so the per-epoch drift slack bounds
            # nothing — re-shard at the queried time.  Within one epoch the
            # slack already covers both directions (|t - roll_time| < length).
            self.clock.force_roll()
        if self.clock.advance(time):
            self._roll(time, version)
        elif self._pending:
            self._assign_pending(time)
        self._sync_time = time

    def _assign_pending(self, time: float) -> None:
        # Arrivals between barriers (churn) join their region immediately —
        # only that shard's snapshot is invalidated, which is the O(N/K)
        # churn-cost win over the unsharded full-world rebuild.
        for node_id in self._pending:
            x, _ = self._position_xy(node_id, time)
            self._sub_attach(self.partition.shard_of(x), node_id)
        self._pending.clear()

    def _sub_attach(self, shard: int, node_id: str) -> None:
        self._membership[node_id] = shard
        sub = self._subs[shard]
        sub.attach(node_id)
        # Write the *global* attach sequence through so per-shard candidate
        # tuples sort by global order even after cross-shard migrations.
        sub._attach_order[node_id] = self._attach_order[node_id]
        sub._node_ids_cache = None

    def _roll(self, time: float, version: int) -> None:
        """The epoch barrier: reassign membership, rebuild, merge outboxes."""
        node_ids = self.node_ids
        coords = self._coordinates_at(node_ids, time)
        membership = self._membership
        shard_of = self.partition.shard_of
        for node_id, (x, _) in zip(node_ids, coords):
            target = shard_of(x)
            current = membership.get(node_id)
            if current is None:
                self._sub_attach(target, node_id)
            elif current != target:
                # Boundary handoff: the node crossed a region border since
                # the last barrier; its reception state lives in the medium
                # (receiver-keyed, shard-agnostic), so handing off is purely
                # a membership move — mid-transfer frames keep flowing.
                self._subs[current].detach(node_id)
                self._sub_attach(target, node_id)
                self.shard_migrations += 1
        self._pending.clear()
        self._merge_outboxes()
        self._prebuild(time, node_ids, coords)
        self._epoch_speed = self.positions.speed_bound()
        self._epoch_version = version

    def _merge_outboxes(self) -> None:
        """Merge per-shard boundary queues in deterministic sequence order."""
        shards = self.partition.shards
        clock = self.clock
        entries = sorted(
            (clock.sequence(shard, shards), self._outbox[shard])
            for shard in range(shards)
            if self._outbox[shard]
        )
        for _, count in entries:
            self.boundary_merged += count
        self._outbox = [0] * shards

    def _prebuild(self, time: float, node_ids, coords) -> None:
        """Rebuild every populated shard snapshot at the barrier, concurrently.

        Coordinates are computed once, up front, in the calling thread —
        workers never touch the mobility model, so lazy leg extension (and
        its RNG) stays single-threaded and the builds are pure functions of
        their inputs: byte-identical results in every executor mode.
        """
        attach_order = self._attach_order
        members: List[List[Tuple[int, str, float, float]]] = [
            [] for _ in range(self.partition.shards)
        ]
        for node_id, (x, y) in zip(node_ids, coords):
            members[self._membership[node_id]].append(
                (attach_order[node_id], node_id, x, y)
            )
        tasks = []
        targets = []
        for shard, entries in enumerate(members):
            sub = self._subs[shard]
            if not entries:
                continue
            array_layout = (
                isinstance(sub, ArrayGridNeighborIndex) and not sub._scalar_strategy
            )
            if array_layout:
                np = numpy_or_none()
                pos = np.asarray(
                    [(entry[2], entry[3]) for entry in entries], dtype=np.float64
                )
                tasks.append((_build_array_codes, (pos, self.cell_size)))
                targets.append((sub, entries, pos))
            else:
                tasks.append((_build_scalar_cells, (entries, self.cell_size)))
                targets.append((sub, entries, None))
        results = self.executor.run(tasks)
        for (sub, entries, pos), result in zip(targets, results):
            if pos is None:
                sub._cells = result
                sub.rebuilds += 1
            else:
                order = tuple(entry[1] for entry in entries)
                sub._snap_order = order
                sub._snap_pos = pos
                sub._row_of = {node_id: row for row, node_id in enumerate(order)}
                sub._sorted_codes, sub._sorted_rows = result
                sub.array_rebuilds += 1
            sub._snapshot_time = time
            sub._snapshot_speed = sub.positions.speed_bound()
            sub._snapshot_version = sub.positions.mobility_version()
            self.snapshot_builds += 1
            if isinstance(sub, ArrayGridNeighborIndex) and sub._settle_strategy():
                # The region's occupancy now calls for the other layout: let
                # the shard rebuild itself in it at its next query.
                sub._snapshot_time = None


def partition_for_config(config, max_range: Optional[float] = None) -> RegionPartition:
    """The :class:`RegionPartition` a :class:`ChannelConfig` describes.

    Shared by the sharded index and the fault manager's shard-dark partition
    mode, so "shard 2 goes dark" cuts exactly the nodes shard 2 owns.
    ``region_width`` defaults to the true propagation reach (= the default
    grid cell), matching the grid-cells-own-their-nodes framing; experiment
    configs override it with ``area / shards`` for balanced regions.
    """
    shards = getattr(config, "shards", 1)
    width = getattr(config, "shard_region_width", None)
    if width is None:
        if max_range is None:
            max_range = getattr(config, "max_range", lambda: config.wifi_range)()
        width = max_range
    return RegionPartition(max(1, int(shards)), width)
