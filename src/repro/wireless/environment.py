"""Physical environments: obstacle geometry for propagation models.

An :class:`Environment` is the part of a scenario the *radio waves* care
about — buildings, walls, terrain edges — as opposed to the topology layer,
which decides where the nodes are.  Topologies emit an environment (see
:meth:`repro.experiments.topology.Topology.build_environment`) and the
wireless medium hands it to the configured propagation model; the
``obstacle`` model ray-tests links against it.

Geometry is deliberately minimal: axis-aligned rectangles (city blocks,
buildings) and free segments (stand-alone walls).  Everything is immutable
after construction so environments can be shared between trials and
snapshotted without defensive copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

Segment = Tuple[float, float, float, float]  # (ax, ay, bx, by)
Box = Tuple[float, float, float, float]  # (min_x, min_y, max_x, max_y)


@dataclass(frozen=True)
class Obstacle:
    """An axis-aligned rectangular obstacle (a building, a city block)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(
                f"obstacle must have positive extent, got "
                f"({self.x0}, {self.y0})-({self.x1}, {self.y1})"
            )

    @property
    def walls(self) -> List[Segment]:
        """The four boundary segments of the rectangle."""
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        return [
            (x0, y0, x1, y0),
            (x1, y0, x1, y1),
            (x1, y1, x0, y1),
            (x0, y1, x0, y0),
        ]

    def contains(self, x: float, y: float) -> bool:
        """Whether the point lies strictly inside the rectangle."""
        return self.x0 < x < self.x1 and self.y0 < y < self.y1


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Twice the signed area of triangle abc (>0 counter-clockwise)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> bool:
    """Whether collinear point p lies within segment ab's bounding box."""
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
    )


def segments_intersect(
    px: float, py: float, qx: float, qy: float,
    ax: float, ay: float, bx: float, by: float,
) -> bool:
    """Whether segment p-q intersects segment a-b (touching counts)."""
    d1 = _orient(ax, ay, bx, by, px, py)
    d2 = _orient(ax, ay, bx, by, qx, qy)
    d3 = _orient(px, py, qx, qy, ax, ay)
    d4 = _orient(px, py, qx, qy, bx, by)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 != d2 and d3 != 0 != d4:
        return True  # proper crossing
    if d1 == 0 and _on_segment(ax, ay, bx, by, px, py):
        return True
    if d2 == 0 and _on_segment(ax, ay, bx, by, qx, qy):
        return True
    if d3 == 0 and _on_segment(px, py, qx, qy, ax, ay):
        return True
    if d4 == 0 and _on_segment(px, py, qx, qy, bx, by):
        return True
    return False


def _box_of(segment: Segment) -> Box:
    ax, ay, bx, by = segment
    return (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))


class Environment:
    """Immutable obstacle geometry a propagation model can ray-test against.

    Parameters
    ----------
    obstacles:
        Rectangular obstacles (:class:`Obstacle` instances or ``(x0, y0,
        x1, y1)`` tuples).
    walls:
        Free-standing wall segments as ``(ax, ay, bx, by)`` tuples.
    """

    __slots__ = ("obstacles", "_walls", "_wall_groups")

    def __init__(
        self,
        obstacles: Iterable[Obstacle | Tuple[float, float, float, float]] = (),
        walls: Iterable[Segment] = (),
    ):
        parsed: List[Obstacle] = []
        for obstacle in obstacles:
            if not isinstance(obstacle, Obstacle):
                obstacle = Obstacle(*obstacle)
            parsed.append(obstacle)
        self.obstacles: Tuple[Obstacle, ...] = tuple(parsed)
        free_walls: Tuple[Segment, ...] = tuple(tuple(wall) for wall in walls)
        self._walls: Tuple[Segment, ...] = tuple(
            wall for obstacle in self.obstacles for wall in obstacle.walls
        ) + free_walls
        # Occlusion tests go rectangle by rectangle: a ray whose bounding box
        # misses an obstacle's rectangle misses the box of each of its four
        # walls, so one comparison stands in for four.  A group is (bounding
        # box, ((wall box, wall), ...)); the free-standing walls share one
        # group that no ray misses.
        groups: List[Tuple[Box, Tuple[Tuple[Box, Segment], ...]]] = [
            (
                (obstacle.x0, obstacle.y0, obstacle.x1, obstacle.y1),
                tuple((_box_of(wall), wall) for wall in obstacle.walls),
            )
            for obstacle in self.obstacles
        ]
        if free_walls:
            everywhere = (-math.inf, -math.inf, math.inf, math.inf)
            groups.append((everywhere, tuple((_box_of(wall), wall) for wall in free_walls)))
        self._wall_groups = tuple(groups)

    # ---------------------------------------------------------------- queries
    @property
    def walls(self) -> Tuple[Segment, ...]:
        """Every wall segment (obstacle boundaries plus free walls)."""
        return self._walls

    def __bool__(self) -> bool:
        return bool(self._walls)

    def occludes(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """Whether the straight ray a-b crosses (or touches) any wall segment."""
        # Runs once per link of every transmission: the two box tests are
        # spelled out because a helper call costs more than the test.
        ray_min_x = ax if ax < bx else bx
        ray_max_x = ax if ax > bx else bx
        ray_min_y = ay if ay < by else by
        ray_max_y = ay if ay > by else by
        for (min_x, min_y, max_x, max_y), walls in self._wall_groups:
            if (
                max_x < ray_min_x
                or min_x > ray_max_x
                or max_y < ray_min_y
                or min_y > ray_max_y
            ):
                continue
            for (min_x, min_y, max_x, max_y), wall in walls:
                if (
                    max_x < ray_min_x
                    or min_x > ray_max_x
                    or max_y < ray_min_y
                    or min_y > ray_max_y
                ):
                    continue
                if segments_intersect(ax, ay, bx, by, *wall):
                    return True
        return False

    def contains(self, x: float, y: float) -> bool:
        """Whether the point lies strictly inside any rectangular obstacle."""
        return any(obstacle.contains(x, y) for obstacle in self.obstacles)

    def describe(self) -> str:
        """One-line human-readable summary (used by examples and the CLI)."""
        return f"Environment({len(self.obstacles)} obstacles, {len(self._walls)} walls)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
