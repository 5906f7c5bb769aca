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

import functools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mobility.scripted import Waypoint

Cell = Tuple[int, int]
#: One step of a walk: (next state, x, y, street distance to it), where a
#: state is (intersection, previous intersection or None).
Step = Tuple[Tuple[Cell, Optional[Cell]], float, float, float]


@functools.lru_cache(maxsize=8)
def _step_table(
    xs: Tuple[float, ...], ys: Tuple[float, ...]
) -> Dict[Tuple[Cell, Optional[Cell]], Tuple[Step, ...]]:
    """The steps a walk may take from each state, in the order it draws from.

    From intersection ``(column, row)`` a walk may go east, west, north or
    south (in that order) while it stays on the grid; it avoids going
    straight back to the previous intersection whenever any other street
    continues — walks sweep the city instead of oscillating on one segment.
    """
    columns, rows = len(xs), len(ys)
    table = {}
    for column in range(columns):
        for row in range(rows):
            here = (column, row)
            choices = [
                (column + dc, row + dr)
                for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= column + dc < columns and 0 <= row + dr < rows
            ]
            for previous in [None, *choices]:
                forward = [cell for cell in choices if cell != previous]
                table[here, previous] = tuple(
                    (
                        (cell, here),
                        xs[cell[0]],
                        ys[cell[1]],
                        abs(xs[cell[0]] - xs[column]) + abs(ys[cell[1]] - ys[row]),
                    )
                    for cell in forward or choices
                )
    return table


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
    xs, ys = tuple(sorted(xs)), tuple(sorted(ys))
    table = _step_table(xs, ys)
    column, row = rng.randrange(len(xs)), rng.randrange(len(ys))
    state = ((column, row), None)
    now = 0.0
    waypoints = [Waypoint(now, xs[column], ys[row])]
    choice, uniform = rng.choice, rng.uniform
    while now < duration:
        state, x, y, distance = choice(table[state])
        now += distance / uniform(min_speed, max_speed)
        waypoints.append(Waypoint(now, x, y))
    return waypoints
