"""Scripted (trace-driven) mobility.

Used to reproduce the real-world scenarios of Fig. 8, where the movement of
the participants is known: a data carrier fetching a collection and walking
to other network segments (scenario 1), peers downloading from a stationary
repository (scenario 2), and peers moving across an area, sometimes
disconnected and sometimes in range of each other (scenario 3).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.mobility.base import MobilityModel, Position


@dataclass(frozen=True)
class Waypoint:
    """A timed waypoint: the node is at ``(x, y)`` exactly at ``time``."""

    time: float
    x: float
    y: float

    @property
    def position(self) -> Position:
        return Position(self.x, self.y)


_waypoint_time = attrgetter("time")


class ScriptedMobility(MobilityModel):
    """Piecewise-linear movement through explicit, timed waypoints.

    Before the first waypoint the node sits at the first waypoint's position;
    after the last it sits at the last waypoint's position.  Between
    waypoints the position is linearly interpolated.

    :meth:`position` and :meth:`position_xy` evaluate the same *leg*: a
    tuple ``(valid_from, valid_to, t0, span, x0, y0, dx, dy)`` with
    ``position = (x0, y0) + (dx, dy) * ((time - t0) / span)`` for
    ``valid_from <= time <= valid_to``.  :meth:`_find_leg` is the only place
    that resolves a timestamp to a leg (one ``bisect`` over the node's
    waypoints), and each node's most recent leg is kept, so a query costs
    O(1) while time stays within a leg and O(log waypoints) when it leaves
    it — in either direction.
    """

    def __init__(self):
        self._waypoints: Dict[str, List[Waypoint]] = {}
        # Each node's most recently resolved leg.
        self._current: Dict[str, Tuple[float, ...]] = {}
        self._version = 0
        self._speed_bound: Optional[float] = None

    def add_node(self, node_id: str, waypoints: Iterable[Waypoint | Tuple[float, float, float]]) -> None:
        """Register a node with its waypoint trace (must be non-empty)."""
        parsed: List[Waypoint] = []
        for waypoint in waypoints:
            if not isinstance(waypoint, Waypoint):
                waypoint = Waypoint(*waypoint)
            parsed.append(waypoint)
        if not parsed:
            raise ValueError(f"node {node_id!r} needs at least one waypoint")
        parsed.sort(key=lambda w: w.time)
        self._waypoints[node_id] = parsed
        self._current.pop(node_id, None)
        self._speed_bound = None
        self._version += 1

    def add_static_node(self, node_id: str, x: float, y: float) -> None:
        """Register a node that never moves (e.g. a repository)."""
        self.add_node(node_id, [Waypoint(0.0, x, y)])

    @property
    def node_ids(self) -> list[str]:
        return list(self._waypoints)

    def position(self, node_id: str, time: float) -> Position:
        return Position(*self.position_xy(node_id, time))

    def position_xy(self, node_id: str, time: float) -> Tuple[float, float]:
        leg = self._current.get(node_id)
        if leg is None or not leg[0] <= time <= leg[1]:
            leg = self._find_leg(node_id, time)
        fraction = (time - leg[2]) / leg[3]
        return (leg[4] + leg[6] * fraction, leg[5] + leg[7] * fraction)

    def mobility_version(self) -> int:
        return self._version

    def _find_leg(self, node_id: str, time: float) -> Tuple[float, ...]:
        """Resolve (and remember) the leg of ``node_id`` that covers ``time``.

        Boundary rules: at or before the first waypoint's time the node
        rests at the first waypoint, at or after the last waypoint's time at
        the last one, and in between waypoint pair ``(i-1, i)`` owns
        ``(t_{i-1}, t_i]``.  ``bisect_left`` finds exactly that pair, and
        because ``t_{i-1} < time`` its span is never zero: waypoints sharing
        a timestamp are a jump taken just after that instant.  The windows
        are closed intervals (``math.nextafter`` turns the open ends into
        closed ones) so that the one ``valid_from <= time <= valid_to`` test
        in :meth:`position_xy` decides whether the remembered leg still
        applies.
        """
        try:
            waypoints = self._waypoints[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} has no scripted trace") from None
        first, last = waypoints[0], waypoints[-1]
        if time <= first.time:
            leg = (-math.inf, first.time, 0.0, 1.0, first.x, first.y, 0.0, 0.0)
        elif time >= last.time:
            valid_from = last.time
            if valid_from == first.time:
                # A trace squeezed into one instant: that instant belongs to
                # the branch above.
                valid_from = math.nextafter(valid_from, math.inf)
            leg = (valid_from, math.inf, 0.0, 1.0, last.x, last.y, 0.0, 0.0)
        else:
            # Leaving a leg is rare next to querying within one, so the
            # keyed bisect needs no parallel list of timestamps.
            index = bisect_left(waypoints, time, key=_waypoint_time)
            earlier, later = waypoints[index - 1], waypoints[index]
            valid_to = later.time
            if valid_to >= last.time:
                # The resting branch above owns the last timestamp itself.
                valid_to = math.nextafter(valid_to, -math.inf)
            leg = (
                math.nextafter(earlier.time, math.inf),
                valid_to,
                earlier.time,
                later.time - earlier.time,
                earlier.x,
                earlier.y,
                later.x - earlier.x,
                later.y - earlier.y,
            )
        self._current[node_id] = leg
        return leg

    def speed_bound(self) -> float:
        """Fastest leg speed across all traces (exact: traces are known upfront).

        Walks every trace once per :meth:`add_node` generation — the spatial
        index asks at every snapshot rebuild, and traces run to thousands of
        waypoints — and only when first asked, so registering nodes stays
        O(own waypoints).
        """
        fastest = self._speed_bound
        if fastest is None:
            fastest = 0.0
            hypot = math.hypot
            for waypoints in self._waypoints.values():
                for earlier, later in zip(waypoints, waypoints[1:]):
                    span = later.time - earlier.time
                    if span <= 0:
                        continue
                    speed = hypot(earlier.x - later.x, earlier.y - later.y) / span
                    if speed > fastest:
                        fastest = speed
            self._speed_bound = fastest
        return fastest
