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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("MobilityModel", "Position"),
    "composite": ("CompositeMobility",),
    "random_direction": ("RandomDirectionMobility",),
    "scripted": ("ScriptedMobility", "Waypoint"),
    "static": ("StaticPlacement",),
    "street": ("street_walk",),
})
