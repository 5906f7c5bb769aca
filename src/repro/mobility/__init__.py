"""Node mobility models.

The paper's simulation study uses a 300 m x 300 m area with 40 mobile nodes
that repeatedly pick a random direction (0 to 2*pi) and speed (2-10 m/s), plus
4 stationary repository nodes (:class:`RandomDirectionMobility`,
:class:`StaticPlacement`, mixed per node by :class:`CompositeMobility`).  The
real-world scenarios of Fig. 8 follow scripted movements (a data carrier
walking between network segments, peers moving in and out of range of each
other): :class:`ScriptedMobility`, the one piecewise-linear trace engine,
which also replays the street walks :func:`street_walk` draws for urban
worlds.

Every model answers one query, :meth:`MobilityModel.position_xy`: the node
position at an arbitrary simulated time.  Models are deterministic for a
given random stream.
"""

from repro.mobility.base import MobilityModel, Position
from repro.mobility.composite import CompositeMobility
from repro.mobility.random_direction import RandomDirectionMobility
from repro.mobility.scripted import ScriptedMobility, Waypoint
from repro.mobility.static import StaticPlacement
from repro.mobility.street import street_walk

__all__ = [
    "CompositeMobility",
    "MobilityModel",
    "Position",
    "RandomDirectionMobility",
    "ScriptedMobility",
    "StaticPlacement",
    "Waypoint",
    "street_walk",
]
