"""Random-waypoint mobility (provided as an alternative mobility pattern).

The paper's future-work section mentions experimenting with various mobility
patterns; random waypoint is the most common alternative to random direction
and is included so experiments can swap models without further code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mobility.base import MobilityModel, Position


@dataclass(frozen=True)
class _Leg:
    """Travel from ``start`` to ``end`` between ``start_time`` and ``end_time``,
    then pause until ``pause_until``."""

    start_time: float
    end_time: float
    pause_until: float
    start: Position
    end: Position

    def position_at(self, time: float) -> Position:
        if time >= self.end_time:
            return self.end
        if self.end_time == self.start_time:
            return self.end
        fraction = (time - self.start_time) / (self.end_time - self.start_time)
        fraction = min(max(fraction, 0.0), 1.0)
        return Position(
            self.start.x + (self.end.x - self.start.x) * fraction,
            self.start.y + (self.end.y - self.start.y) * fraction,
        )


class RandomWaypointMobility(MobilityModel):
    """Nodes travel to uniformly random waypoints, optionally pausing between legs."""

    def __init__(
        self,
        width: float = 300.0,
        height: float = 300.0,
        min_speed: float = 2.0,
        max_speed: float = 10.0,
        pause_time: float = 0.0,
        rng: random.Random | None = None,
    ):
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError("speed range must satisfy 0 < min_speed <= max_speed")
        self.width = width
        self.height = height
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = pause_time
        self._rng = rng if rng is not None else random.Random(0)
        self._version = 0
        self._node_rngs: Dict[str, random.Random] = {}
        self._legs: Dict[str, List[_Leg]] = {}
        self._initial: Dict[str, Position] = {}
        # Per-node cache of the leg the last query fell in (valid through
        # its pause window): the common query pattern revisits one leg many
        # times, so this skips the extend/reverse-scan on the hot path.
        self._current: Dict[str, _Leg] = {}

    def add_node(self, node_id: str, initial_position: Position | Tuple[float, float] | None = None) -> None:
        """Register a mobile node, optionally at a fixed initial position."""
        if initial_position is None:
            position = Position(self._rng.uniform(0, self.width), self._rng.uniform(0, self.height))
        elif isinstance(initial_position, Position):
            position = initial_position
        else:
            position = Position(*initial_position)
        self._initial[node_id] = position
        # Per-node stream: legs are a function of registration order only,
        # never of the position-query pattern (see MobilityModel contract).
        self._node_rngs[node_id] = random.Random(self._rng.getrandbits(64))
        self._legs[node_id] = []
        self._current.pop(node_id, None)
        self._version += 1

    @property
    def node_ids(self) -> list[str]:
        return list(self._initial)

    def position(self, node_id: str, time: float) -> Position:
        leg = self._current.get(node_id)
        if leg is not None and leg.start_time <= time <= leg.pause_until:
            return leg.position_at(time)
        leg = self._locate_leg(node_id, time)
        if leg is None:
            return self._initial[node_id]
        return leg.position_at(time)

    def position_xy(self, node_id: str, time: float) -> Tuple[float, float]:
        leg = self._current.get(node_id)
        if leg is None or not (leg.start_time <= time <= leg.pause_until):
            leg = self._locate_leg(node_id, time)
            if leg is None:
                initial = self._initial[node_id]
                return (initial.x, initial.y)
        # Same arithmetic as _Leg.position_at (bit-identical floats), minus
        # the Position allocation.
        if time >= leg.end_time or leg.end_time == leg.start_time:
            return (leg.end.x, leg.end.y)
        fraction = (time - leg.start_time) / (leg.end_time - leg.start_time)
        fraction = min(max(fraction, 0.0), 1.0)
        start, end = leg.start, leg.end
        return (
            start.x + (end.x - start.x) * fraction,
            start.y + (end.y - start.y) * fraction,
        )

    def _locate_leg(self, node_id: str, time: float) -> "_Leg | None":
        """Find (and cache) the leg covering ``time``, extending lazily."""
        if node_id not in self._initial:
            raise KeyError(f"node {node_id!r} is not registered with the mobility model")
        self._extend_until(node_id, time)
        for leg in reversed(self._legs[node_id]):
            if leg.start_time <= time:
                self._current[node_id] = leg
                return leg
        return None

    def speed_bound(self) -> float:
        return self.max_speed

    def mobility_version(self) -> int:
        return self._version

    def metrics(self) -> Dict[str, float]:
        return {"mobility.legs_generated": float(sum(map(len, self._legs.values())))}

    def _extend_until(self, node_id: str, time: float) -> None:
        legs = self._legs[node_id]
        while not legs or legs[-1].pause_until < time:
            if legs:
                start_time = legs[-1].pause_until
                start = legs[-1].end
            else:
                start_time = 0.0
                start = self._initial[node_id]
            legs.append(self._new_leg(node_id, start_time, start))

    def _new_leg(self, node_id: str, start_time: float, start: Position) -> _Leg:
        rng = self._node_rngs[node_id]
        destination = Position(rng.uniform(0, self.width), rng.uniform(0, self.height))
        speed = rng.uniform(self.min_speed, self.max_speed)
        distance = start.distance_to(destination)
        travel_time = max(distance / speed, 1e-3)
        end_time = start_time + travel_time
        return _Leg(start_time, end_time, end_time + self.pause_time, start, destination)
