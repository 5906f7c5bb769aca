"""Street-graph mobility: random walks constrained to a Manhattan grid.

Urban scenarios confine movement to streets: nodes walk along the grid of
street centrelines, turning (or going straight) at intersections, never
cutting through the blocks between them.  Rather than inventing a new
trajectory engine, :class:`StreetGridMobility` *precomputes* each node's
walk as a timed waypoint trace and delegates position queries to the
piecewise-linear interpolation of :class:`~repro.mobility.scripted.ScriptedMobility`
— reusing the machinery that already serves the paper's Fig. 8 scenarios.

Determinism and query-order independence come for free: every trace is
generated once, at :meth:`add_node` time, from the shared RNG stream (node
registration order is fixed by the topology builder), so position queries
never draw randomness and cannot influence each other.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.mobility.base import MobilityModel, Position
from repro.mobility.scripted import ScriptedMobility, Waypoint


class StreetGridMobility(MobilityModel):
    """Random walk over the intersections of a Manhattan street grid.

    Parameters
    ----------
    xs, ys:
        Street centreline coordinates (vertical streets at each ``x`` of
        ``xs``, horizontal streets at each ``y`` of ``ys``).  Intersections
        are the cross product; each must have at least two entries so every
        intersection has a neighbour.
    min_speed, max_speed:
        Per-leg speed range in m/s (drawn uniformly per street segment).
    rng:
        The random stream traces are drawn from (e.g.
        ``sim.rng("mobility.street")``).
    duration:
        How much simulated time each trace must cover.  Past the end of its
        trace a node rests at its final intersection (scripted semantics),
        so pass at least the experiment's ``max_duration``.
    """

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        min_speed: float,
        max_speed: float,
        rng: random.Random,
        duration: float,
    ):
        if len(xs) < 2 or len(ys) < 2:
            raise ValueError("a street grid needs at least two streets per direction")
        if not 0 < min_speed <= max_speed:
            raise ValueError("speeds must satisfy 0 < min_speed <= max_speed")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.xs = tuple(sorted(xs))
        self.ys = tuple(sorted(ys))
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.duration = duration
        self._rng = rng
        self._scripted = ScriptedMobility()

    # ------------------------------------------------------------ membership
    @property
    def node_ids(self) -> List[str]:
        return self._scripted.node_ids

    def intersections(self) -> List[Tuple[float, float]]:
        """Every street intersection, row-major."""
        return [(x, y) for y in self.ys for x in self.xs]

    def add_node(self, node_id: str, start: Optional[Tuple[int, int]] = None) -> None:
        """Register a node and draw its whole walk.

        ``start`` optionally pins the starting intersection as ``(column,
        row)`` indices into ``xs``/``ys``; by default it is drawn from the
        trace RNG.
        """
        rng = self._rng
        columns, rows = len(self.xs), len(self.ys)
        if start is None:
            column, row = rng.randrange(columns), rng.randrange(rows)
        else:
            column, row = start
        previous: Optional[Tuple[int, int]] = None
        now = 0.0
        waypoints = [Waypoint(now, self.xs[column], self.ys[row])]
        while now < self.duration:
            choices = [
                (column + dc, row + dr)
                for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= column + dc < columns and 0 <= row + dr < rows
            ]
            # Avoid immediate backtracking when any other street continues —
            # walks sweep the city instead of oscillating on one segment.
            forward = [cell for cell in choices if cell != previous]
            next_column, next_row = rng.choice(forward or choices)
            speed = rng.uniform(self.min_speed, self.max_speed)
            distance = abs(self.xs[next_column] - self.xs[column]) + abs(
                self.ys[next_row] - self.ys[row]
            )
            now += distance / speed
            waypoints.append(Waypoint(now, self.xs[next_column], self.ys[next_row]))
            previous = (column, row)
            column, row = next_column, next_row
        self._scripted.add_node(node_id, waypoints)

    # --------------------------------------------------------------- queries
    def position(self, node_id: str, time: float) -> Position:
        return self._scripted.position(node_id, time)

    def position_xy(self, node_id: str, time: float) -> Tuple[float, float]:
        return self._scripted.position_xy(node_id, time)

    def mobility_version(self) -> int:
        return self._scripted.mobility_version()

    def speed_bound(self) -> float:
        # The exact bound over the generated traces (not max_speed: rounding
        # in waypoint timing can only make legs slower, never faster).
        return self._scripted.speed_bound()
