"""Street-graph walks: random walks constrained to a Manhattan grid.

Urban scenarios confine movement to streets: nodes walk along the grid of
street centrelines, turning (or going straight) at intersections, never
cutting through the blocks between them.  :func:`street_walk` draws one
node's whole walk as a timed waypoint trace, which
:class:`~repro.mobility.scripted.ScriptedMobility` then interpolates — the
same trace engine that serves the paper's Fig. 8 scenarios.

Determinism and query-order independence come for free: every trace is
drawn once, when the node is registered, from the shared RNG stream (node
registration order is fixed by the topology builder), so position queries
never draw randomness and cannot influence each other.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.mobility.scripted import Waypoint


def street_walk(
    xs: Sequence[float],
    ys: Sequence[float],
    min_speed: float,
    max_speed: float,
    rng: random.Random,
    duration: float,
) -> List[Waypoint]:
    """One random walk over the intersections of a Manhattan street grid.

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
        The random stream the walk is drawn from (e.g.
        ``sim.rng("mobility.street")``): the starting intersection, then one
        turn and one speed per street segment.
    duration:
        How much simulated time the trace must cover.  Past the end of its
        trace a node rests at its final intersection (scripted semantics),
        so pass at least the experiment's ``max_duration``.
    """
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("a street grid needs at least two streets per direction")
    if not 0 < min_speed <= max_speed:
        raise ValueError("speeds must satisfy 0 < min_speed <= max_speed")
    if duration <= 0:
        raise ValueError("duration must be positive")
    xs, ys = sorted(xs), sorted(ys)
    columns, rows = len(xs), len(ys)
    column, row = rng.randrange(columns), rng.randrange(rows)
    previous: Optional[Tuple[int, int]] = None
    now = 0.0
    waypoints = [Waypoint(now, xs[column], ys[row])]
    while now < duration:
        choices = [
            (column + dc, row + dr)
            for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= column + dc < columns and 0 <= row + dr < rows
        ]
        # Avoid immediate backtracking when any other street continues —
        # walks sweep the city instead of oscillating on one segment.
        forward = [cell for cell in choices if cell != previous]
        next_column, next_row = rng.choice(forward or choices)
        speed = rng.uniform(min_speed, max_speed)
        distance = abs(xs[next_column] - xs[column]) + abs(ys[next_row] - ys[row])
        now += distance / speed
        waypoints.append(Waypoint(now, xs[next_column], ys[next_row]))
        previous = (column, row)
        column, row = next_column, next_row
    return waypoints
