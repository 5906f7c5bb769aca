"""Base abstractions shared by all mobility models."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.arrays import numpy_or_none


@dataclass(frozen=True)
class Position:
    """A 2-D position in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self):
        yield self.x
        yield self.y


class MobilityModel(ABC):
    """A mobility model answers "where is node ``node_id`` at time ``t``?".

    Implementations must be deterministic *and query-order independent*:
    querying the same (node, time) twice returns the same position, queries
    may arrive out of time order, and the trajectory of one node must not
    depend on how often (or whether) other nodes are queried.  The spatial
    neighbor index relies on this — it queries only nodes near a sender,
    while the brute-force reference scan queries everyone, and both must see
    identical trajectories.
    """

    @abstractmethod
    def position(self, node_id: str, time: float) -> Position:
        """Return the position of ``node_id`` at simulated time ``time``."""

    def position_xy(self, node_id: str, time: float) -> Tuple[float, float]:
        """Raw ``(x, y)`` of ``node_id`` at ``time`` — no :class:`Position`.

        Hot-path variant of :meth:`position`: spatial snapshots only need
        the coordinate pair, and leg-cached models can produce it without
        allocating a :class:`Position` per query.  Must return bit-identical
        floats to :meth:`position`.

        Called once per link of every transmission, so a model is expected
        to answer in O(1) amortised time — independent of how long the
        node's trajectory is — typically by keeping the node's current leg
        (every built-in model does); this default is only a fallback.
        """
        p = self.position(node_id, time)
        return (p.x, p.y)

    def positions_at(self, node_ids: Iterable[str], time: float) -> List[Tuple[float, float]]:
        """Batched :meth:`position_xy` for many nodes at one timestamp.

        The grid neighbor index rebuilds its snapshot through this, so one
        rebuild is a single call instead of N :class:`Position` allocations.
        """
        position_xy = self.position_xy
        return [position_xy(node_id, time) for node_id in node_ids]

    def positions_array(self, node_ids: Sequence[str], time: float):
        """:meth:`positions_at` as an ``(N, 2)`` float64 NumPy array.

        Row ``i`` is the position of ``node_ids[i]`` at ``time``, the floats
        :meth:`position_xy` returns.  No model overrides it and no trial
        calls it (the benchmark's probe pass does); requires NumPy
        (:func:`repro.arrays.numpy_available`).
        """
        np = numpy_or_none()
        if np is None:
            raise RuntimeError(
                "positions_array requires NumPy; positions_at is the scalar "
                "equivalent (see repro.arrays.numpy_available)"
            )
        return np.asarray(
            self.positions_at(node_ids, time), dtype=np.float64
        ).reshape(-1, 2)

    def speed_bound(self) -> float:
        """An upper bound on any node's speed in m/s (``inf`` if unknown).

        The grid neighbor index uses this to bound how far a node can drift
        from its snapshotted position; models that cannot provide a bound
        force the index to refresh its snapshot at every new timestamp.

        Called at every snapshot rebuild (once per simulated second by
        default), so it is expected to be O(1): a bound that has to be
        derived from the trajectories is computed once per
        :meth:`mobility_version` and kept.
        """
        return math.inf

    def mobility_version(self) -> int:
        """Monotonic counter bumped whenever placements mutate.

        Teleporting a node (``StaticPlacement.place`` mid-run) or registering
        a new one sidesteps the ``speed_bound`` drift guarantee, so grid
        snapshots and remembered neighbour sets treat any version change as
        a full invalidation.  Lazy trajectory extension is *not* a mutation
        — it is deterministic and query-order independent.
        """
        return 0

    def metrics(self) -> Dict[str, float]:
        """Mobility counters for a run profile: trajectory legs generated."""
        return {"mobility.legs_generated": 0.0}

    def distance(self, node_a: str, node_b: str, time: float) -> float:
        """Distance in metres between two nodes at ``time``."""
        return self.position(node_a, time).distance_to(self.position(node_b, time))
