"""Random-direction mobility, the model used in the paper's simulations.

Each mobile node repeatedly chooses a uniformly random direction in
[0, 2*pi) and a uniformly random speed in [min_speed, max_speed], then travels
in a straight line for an *epoch*.  An epoch ends either after a random
duration or when the node reaches the simulation area boundary, whichever
happens first; the node then picks a new direction/speed.  Movement is
clamped inside the area.

The trajectory of each node is generated lazily segment-by-segment, so that a
position query at any time is answered deterministically regardless of query
order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mobility.base import MobilityModel, Position


@dataclass(frozen=True)
class _Segment:
    """One straight-line epoch of movement: position is linear in time."""

    start_time: float
    end_time: float
    start: Position
    velocity: Tuple[float, float]

    def position_at(self, time: float) -> Position:
        elapsed = min(max(time, self.start_time), self.end_time) - self.start_time
        return Position(
            self.start.x + self.velocity[0] * elapsed,
            self.start.y + self.velocity[1] * elapsed,
        )


class RandomDirectionMobility(MobilityModel):
    """Random-direction movement inside a rectangular area.

    Parameters
    ----------
    width, height:
        Dimensions of the simulation area in metres (paper: 300 x 300).
    min_speed, max_speed:
        Speed range in m/s (paper: 2-10 m/s).
    epoch_duration:
        Mean duration of an epoch before a new direction is chosen (s).
    rng:
        Random source (one of the simulator's named streams).  Used for
        initial placement and to derive one independent stream per node, so
        trajectories do not depend on the order position queries arrive in.
    origin:
        Lower-left corner of the movement area in metres.  Topologies that
        confine different node groups to different regions (e.g. clustered
        disaster zones) offset each group's model instead of sharing one
        area-wide model.
    """

    def __init__(
        self,
        width: float = 300.0,
        height: float = 300.0,
        min_speed: float = 2.0,
        max_speed: float = 10.0,
        epoch_duration: float = 20.0,
        rng: random.Random | None = None,
        origin: Tuple[float, float] = (0.0, 0.0),
    ):
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError("speed range must satisfy 0 < min_speed <= max_speed")
        self.width = width
        self.height = height
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.epoch_duration = epoch_duration
        self.origin = (float(origin[0]), float(origin[1]))
        self._rng = rng if rng is not None else random.Random(0)
        self._version = 0
        self._node_rngs: Dict[str, random.Random] = {}
        self._segments: Dict[str, List[_Segment]] = {}
        self._initial: Dict[str, Position] = {}
        # Per-node cache of the segment the last query fell in: repeated
        # queries (the common case — simulation time crawls through one
        # epoch) evaluate the cached leg directly instead of re-deriving it
        # from the segment list.
        self._current: Dict[str, _Segment] = {}

    # ----------------------------------------------------------------- setup
    def add_node(self, node_id: str, initial_position: Position | Tuple[float, float] | None = None) -> None:
        """Register a mobile node, optionally at a fixed initial position."""
        origin_x, origin_y = self.origin
        if initial_position is None:
            position = Position(
                self._rng.uniform(origin_x, origin_x + self.width),
                self._rng.uniform(origin_y, origin_y + self.height),
            )
        elif isinstance(initial_position, Position):
            position = initial_position
        else:
            position = Position(*initial_position)
        self._initial[node_id] = position
        # Each node draws its epochs from a private stream seeded at
        # registration time: trajectories are then a pure function of the
        # registration order, never of the position-query pattern.
        self._node_rngs[node_id] = random.Random(self._rng.getrandbits(64))
        self._segments[node_id] = []
        self._current.pop(node_id, None)
        self._version += 1

    @property
    def node_ids(self) -> list[str]:
        """Ids of all registered nodes."""
        return list(self._initial)

    # -------------------------------------------------------------- querying
    def position(self, node_id: str, time: float) -> Position:
        segment = self._current.get(node_id)
        if segment is not None and segment.start_time <= time <= segment.end_time:
            return segment.position_at(time)
        segment = self._locate_segment(node_id, time)
        if segment is None:
            return self._initial[node_id]
        return segment.position_at(time)

    def position_xy(self, node_id: str, time: float) -> Tuple[float, float]:
        segment = self._current.get(node_id)
        if segment is None or not (segment.start_time <= time <= segment.end_time):
            segment = self._locate_segment(node_id, time)
            if segment is None:
                initial = self._initial[node_id]
                return (initial.x, initial.y)
        # Same arithmetic as _Segment.position_at, without the Position.
        elapsed = min(max(time, segment.start_time), segment.end_time) - segment.start_time
        start = segment.start
        velocity = segment.velocity
        return (start.x + velocity[0] * elapsed, start.y + velocity[1] * elapsed)

    def _locate_segment(self, node_id: str, time: float) -> "_Segment | None":
        """Find (and cache) the segment covering ``time``, extending lazily."""
        if node_id not in self._initial:
            raise KeyError(f"node {node_id!r} is not registered with the mobility model")
        self._extend_until(node_id, time)
        # Binary search would work, but trajectories are extended monotonically
        # and queried near the end; a reverse scan is effectively O(1).
        for segment in reversed(self._segments[node_id]):
            if segment.start_time <= time:
                self._current[node_id] = segment
                return segment
        return None

    def speed_bound(self) -> float:
        return self.max_speed

    def mobility_version(self) -> int:
        return self._version

    def metrics(self) -> Dict[str, float]:
        return {"mobility.legs_generated": float(sum(map(len, self._segments.values())))}

    # -------------------------------------------------------------- internal
    def _extend_until(self, node_id: str, time: float) -> None:
        segments = self._segments[node_id]
        while not segments or segments[-1].end_time < time:
            if segments:
                start_time = segments[-1].end_time
                start = segments[-1].position_at(start_time)
            else:
                start_time = 0.0
                start = self._initial[node_id]
            segments.append(self._new_segment(node_id, start_time, start))

    def _new_segment(self, node_id: str, start_time: float, start: Position) -> _Segment:
        rng = self._node_rngs[node_id]
        direction = rng.uniform(0, 2 * math.pi)
        speed = rng.uniform(self.min_speed, self.max_speed)
        duration = rng.uniform(0.5 * self.epoch_duration, 1.5 * self.epoch_duration)
        vx = speed * math.cos(direction)
        vy = speed * math.sin(direction)
        # Truncate the epoch at the boundary so the node stays inside the area.
        duration = min(duration, self._time_to_boundary(start, vx, vy))
        duration = max(duration, 1e-3)
        return _Segment(start_time, start_time + duration, start, (vx, vy))

    def _time_to_boundary(self, start: Position, vx: float, vy: float) -> float:
        origin_x, origin_y = self.origin
        times = [float("inf")]
        if vx > 0:
            times.append((origin_x + self.width - start.x) / vx)
        elif vx < 0:
            times.append((origin_x - start.x) / vx)
        if vy > 0:
            times.append((origin_y + self.height - start.y) / vy)
        elif vy < 0:
            times.append((origin_y - start.y) / vy)
        return max(min(times), 0.0)
