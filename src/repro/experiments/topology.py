"""Pluggable scenario topologies.

A :class:`Topology` decides *where the nodes are and how they move*; the
protocol builders in :mod:`repro.experiments.scenario` decide *what runs on
them*.  Keeping the two orthogonal means every protocol can be exercised on
every topology, and new workloads only need to register a topology here.

These topologies ship with the harness:

``quadrant``
    The paper's Fig. 7 setup: stationary repositories at the four quadrant
    centres of a square area, mobile nodes roaming the whole area with
    random direction and speed.
``clusters``
    Disaster zones: the area splits into four quadrant cells, each with its
    own repository at the cell centre, and mobile nodes confined to their
    home cell.  Data crosses zones only through repositories near borders
    and node encounters along cell edges — a much harsher partitioned
    workload than ``quadrant``.
``corridor``
    A sparse relay chain: a long thin strip (5:1 aspect) with repositories
    spaced along the centreline and mobile nodes roaming the strip.  Most
    node pairs are far beyond WiFi range, so delivery leans on multi-hop
    forwarding and physical data carriers.
``urban_grid``
    A Manhattan city: square blocks (buildings) separated by streets.
    Repositories sit at intersections, mobile nodes random-walk the street
    graph (:func:`~repro.mobility.street.street_walk` traces), and
    :meth:`Topology.build_environment` emits the buildings as obstacle
    geometry — pair it with ``propagation="obstacle"`` to make the
    buildings opaque to radio.  ``ExperimentConfig.obstacle_density``
    controls the fraction of blocks actually built.
``fig8_carrier``, ``fig8_repository``, ``fig8_moving``
    The three real-world scenarios of the paper's Fig. 8 (Table I): a fixed
    cast of named nodes walking timed waypoint traces
    (:class:`ScriptedTopology`); the config's node counts, area and speeds
    do not apply.

A topology decides both *where the nodes are* (``build_mobility``) and what
the physical world looks like (``build_environment``, optional — the open
field returns ``None``).  Register additional topologies with
:func:`register_topology`::

    @register_topology("ring")
    class RingTopology(Topology):
        def build_mobility(self, config, sim, names): ...

Each topology imports its mobility models inside ``build_mobility`` (and the
obstacle types inside ``build_environment``), so resolving a topology name
at plan time loads no mobility code.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.registry import Registry

if TYPE_CHECKING:
    from repro.mobility import MobilityModel
    from repro.simulation import Simulator
    from repro.wireless.environment import Environment

TOPOLOGIES = Registry("topology")
register_topology = TOPOLOGIES.register
#: ``get_topology(name)`` instantiates the topology registered under ``name``.
get_topology = lambda name: TOPOLOGIES.get(name)()
available_topologies = TOPOLOGIES.names


class Topology(ABC):
    """Node naming plus placement/mobility for one scenario layout."""

    name: str = ""

    def node_names(self, config) -> Dict[str, List[str]]:
        """Stable node ids per role (same roles for every topology)."""
        return {
            "stationary": [f"repo-{index}" for index in range(config.stationary_nodes)],
            "downloaders": [f"mobile-{index}" for index in range(config.mobile_downloaders)],
            "pure": [f"fwd-{index}" for index in range(config.pure_forwarders)],
            "intermediate": [f"relay-{index}" for index in range(config.intermediate_nodes)],
        }

    @abstractmethod
    def build_mobility(
        self, config, sim: Simulator, names: Dict[str, List[str]]
    ) -> MobilityModel:
        """Place the stationary nodes and wire up mobile-node movement."""

    def build_environment(self, config) -> Optional[Environment]:
        """Obstacle geometry of this layout, or ``None`` for an open field.

        The scenario builder threads the environment into the wireless
        medium, where obstacle-aware propagation models ray-test links
        against it.  Topologies without physical structure (the default)
        return ``None``.
        """
        return None

    @staticmethod
    def mobile_ids(names: Dict[str, List[str]]) -> List[str]:
        return names["downloaders"] + names["pure"] + names["intermediate"]


@register_topology("quadrant")
class QuadrantTopology(Topology):
    """The paper's Fig. 7 layout: quadrant-centre repositories, free roaming."""

    def build_mobility(self, config, sim, names):
        from repro.mobility import CompositeMobility, RandomDirectionMobility, StaticPlacement

        mobility = CompositeMobility()
        static = StaticPlacement()
        anchors = [
            (config.area_size * 0.25, config.area_size * 0.25),
            (config.area_size * 0.75, config.area_size * 0.25),
            (config.area_size * 0.25, config.area_size * 0.75),
            (config.area_size * 0.75, config.area_size * 0.75),
        ]
        for index, node_id in enumerate(names["stationary"]):
            x, y = anchors[index % len(anchors)]
            static.place(node_id, x, y)
            mobility.assign(node_id, static)
        mobile = RandomDirectionMobility(
            width=config.area_size,
            height=config.area_size,
            min_speed=config.min_speed,
            max_speed=config.max_speed,
            rng=sim.rng("mobility"),
        )
        for node_id in self.mobile_ids(names):
            mobile.add_node(node_id)
            mobility.assign(node_id, mobile)
        return mobility


@register_topology("clusters")
class ClusteredTopology(Topology):
    """Disaster zones: four quadrant cells, nodes confined to their home cell."""

    GRID = 2  # 2x2 cells

    def build_mobility(self, config, sim, names):
        from repro.mobility import CompositeMobility, RandomDirectionMobility, StaticPlacement

        mobility = CompositeMobility()
        static = StaticPlacement()
        grid = self.GRID
        cell_size = config.area_size / grid
        cells = [
            (column * cell_size, row * cell_size)
            for row in range(grid)
            for column in range(grid)
        ]
        # One repository at each cell centre (cycling when there are more).
        for index, node_id in enumerate(names["stationary"]):
            origin_x, origin_y = cells[index % len(cells)]
            static.place(node_id, origin_x + cell_size / 2, origin_y + cell_size / 2)
            mobility.assign(node_id, static)
        # Mobile nodes are dealt round-robin to cells and never leave them.
        walkers = [
            RandomDirectionMobility(
                width=cell_size,
                height=cell_size,
                min_speed=config.min_speed,
                max_speed=config.max_speed,
                rng=sim.rng(f"mobility.cell-{index}"),
                origin=origin,
            )
            for index, origin in enumerate(cells)
        ]
        for index, node_id in enumerate(self.mobile_ids(names)):
            walker = walkers[index % len(walkers)]
            walker.add_node(node_id)
            mobility.assign(node_id, walker)
        return mobility


@register_topology("corridor")
class CorridorTopology(Topology):
    """Sparse relay chain along a long thin strip (length 5x the width)."""

    ASPECT = 5.0

    def build_mobility(self, config, sim, names):
        from repro.mobility import CompositeMobility, RandomDirectionMobility, StaticPlacement

        mobility = CompositeMobility()
        static = StaticPlacement()
        length = config.area_size * self.ASPECT
        width = config.area_size
        # Repositories form the relay backbone, evenly spaced on the midline.
        count = max(len(names["stationary"]), 1)
        for index, node_id in enumerate(names["stationary"]):
            x = length * (index + 1) / (count + 1)
            static.place(node_id, x, width / 2)
            mobility.assign(node_id, static)
        mobile = RandomDirectionMobility(
            width=length,
            height=width,
            min_speed=config.min_speed,
            max_speed=config.max_speed,
            rng=sim.rng("mobility"),
        )
        for node_id in self.mobile_ids(names):
            mobile.add_node(node_id)
            mobility.assign(node_id, mobile)
        return mobility


@register_topology("urban_grid")
class UrbanGridTopology(Topology):
    """Manhattan blocks: nodes on the street graph, buildings in between.

    The area splits into ``BLOCKS`` x ``BLOCKS`` square blocks; streets run
    between them (and along the area boundary) with a width of
    ``STREET_FRACTION`` of the block pitch.  Mobile nodes random-walk the
    street centrelines, repositories sit at evenly spread intersections,
    and :meth:`build_environment` emits the built blocks — shrunk to leave
    the streets clear — as rectangular obstacles.

    :attr:`ExperimentConfig.obstacle_density` selects which fraction of the
    blocks is actually built (the rest are open plazas).  Selection is a
    deterministic pseudo-random order over block coordinates, independent
    of the trial seed, so a density sweep grows the same city monotonically
    across every variant and trial.
    """

    BLOCKS = 3               # blocks per side; streets = BLOCKS + 1 per direction
    STREET_FRACTION = 0.15   # street width as a fraction of the block pitch
    TRACE_MARGIN = 60.0      # extra seconds of trace beyond max_duration

    def geometry(self, config) -> Tuple[Tuple[float, ...], float]:
        """``(street centrelines, street width)`` for one axis (square area)."""
        pitch = config.area_size / self.BLOCKS
        centrelines = tuple(index * pitch for index in range(self.BLOCKS + 1))
        return centrelines, pitch * self.STREET_FRACTION

    def block_order(self) -> List[Tuple[int, int]]:
        """Every block coordinate, in the deterministic build order."""
        blocks = [(column, row) for row in range(self.BLOCKS) for column in range(self.BLOCKS)]
        blocks.sort(
            key=lambda cell: hashlib.sha256(f"block:{cell[0]}:{cell[1]}".encode()).digest()
        )
        return blocks

    def build_mobility(self, config, sim, names):
        from repro.mobility import CompositeMobility, ScriptedMobility, StaticPlacement, street_walk

        mobility = CompositeMobility()
        static = StaticPlacement()
        lines, _width = self.geometry(config)
        intersections = [(x, y) for y in lines for x in lines]
        # Repositories walk the intersection list at a stride of one row
        # plus one column (coprime with the row-major width), so successive
        # repositories land on a diagonal across the city; a row-multiple
        # stride would collapse them all onto one boundary street.
        stride = len(lines) + 1
        for index, node_id in enumerate(names["stationary"]):
            x, y = intersections[(index * stride) % len(intersections)]
            static.place(node_id, x, y)
            mobility.assign(node_id, static)
        walkers = ScriptedMobility()
        rng = sim.rng("mobility.street")
        duration = config.max_duration + self.TRACE_MARGIN
        for node_id in self.mobile_ids(names):
            walkers.add_node(
                node_id,
                street_walk(lines, lines, config.min_speed, config.max_speed, rng, duration),
            )
            mobility.assign(node_id, walkers)
        return mobility

    def build_environment(self, config) -> Optional[Environment]:
        from repro.wireless.environment import Environment, Obstacle

        density = config.obstacle_density
        if density <= 0.0:
            return Environment()
        lines, street_width = self.geometry(config)
        half = street_width / 2
        blocks = self.block_order()
        built = blocks[: max(0, min(len(blocks), round(density * len(blocks))))]
        obstacles = []
        for column, row in built:
            obstacles.append(
                Obstacle(
                    lines[column] + half,
                    lines[row] + half,
                    lines[column + 1] - half,
                    lines[row + 1] - half,
                )
            )
        return Environment(obstacles=obstacles)


# ============================================================ Fig. 8 scripts
Trace = Tuple[Tuple[float, float, float], ...]


class ScriptedTopology(Topology):
    """A fixed cast of named nodes walking timed ``(time, x, y)`` traces.

    ``TRACES`` holds every node's waypoints (a single waypoint is a node
    that never moves).  ``PRODUCER`` publishes the collection: it is
    ``downloaders[0]``, the other traced nodes download after it, and the
    nodes named in ``STATIONARY`` download as stationary peers.  Nothing
    else runs, so the config's node counts, area and speeds do not apply.
    """

    PRODUCER: str = ""
    STATIONARY: Tuple[str, ...] = ()
    TRACES: Dict[str, Trace] = {}

    def node_names(self, config) -> Dict[str, List[str]]:
        others = [
            node_id for node_id in self.TRACES
            if node_id != self.PRODUCER and node_id not in self.STATIONARY
        ]
        return {
            "stationary": list(self.STATIONARY),
            "downloaders": [self.PRODUCER] + others,
            "pure": [],
            "intermediate": [],
        }

    def build_mobility(self, config, sim, names):
        from repro.mobility import ScriptedMobility

        mobility = ScriptedMobility()
        for node_id, waypoints in self.TRACES.items():
            mobility.add_node(node_id, waypoints)
        return mobility


@register_topology("fig8_carrier")
class CarrierTopology(ScriptedTopology):
    """Fig. 8a: D carries the collection from A's segment to B's and C's."""

    PRODUCER = "A"
    TRACES = {
        "A": ((0.0, 0.0, 0.0),),
        "B": ((0.0, 150.0, 0.0),),
        "C": ((0.0, 150.0, 150.0),),
        "D": (
            (0.0, 15.0, 0.0),       # next to A, fetching the collection
            (60.0, 15.0, 0.0),
            (100.0, 140.0, 0.0),    # walk to B's segment
            (160.0, 140.0, 0.0),
            (200.0, 140.0, 140.0),  # walk to C's segment
            (400.0, 140.0, 140.0),
        ),
    }


@register_topology("fig8_repository")
class RepositoryTopology(ScriptedTopology):
    """Fig. 8b: the repo downloads from C; A and B download from the repo."""

    PRODUCER = "C"
    STATIONARY = ("repo",)
    TRACES = {
        "repo": ((0.0, 75.0, 75.0),),
        "C": (
            (0.0, 80.0, 75.0),      # producer next to the repo
            (80.0, 80.0, 75.0),
            (120.0, 150.0, 150.0),  # then walks away
            (400.0, 150.0, 150.0),
        ),
        "A": (
            (0.0, 0.0, 0.0),
            (60.0, 0.0, 0.0),
            (110.0, 70.0, 75.0),    # arrives at the repo
            (400.0, 70.0, 75.0),
        ),
        "B": (
            (0.0, 0.0, 150.0),
            (60.0, 0.0, 150.0),
            (115.0, 75.0, 80.0),    # arrives at the repo at about the same time
            (400.0, 75.0, 80.0),
        ),
    }


def _gather(x: float, y: float) -> Trace:
    """Fig. 8c's corner-to-centre walk: isolated, gathered, dispersed, gathered."""
    centre = (75.0, 75.0)
    return (
        (0.0, x, y),            # start isolated in a corner
        (20.0, x, y),
        (50.0, *centre),        # first gathering: everyone in range
        (90.0, *centre),
        (120.0, x, y),          # disperse again
        (150.0, x, y),
        (180.0, *centre),       # second gathering
        (400.0, *centre),
    )


@register_topology("fig8_moving")
class MovingTopology(ScriptedTopology):
    """Fig. 8c: four peers move, sometimes disconnected, sometimes all in range."""

    PRODUCER = "A"
    TRACES = {
        "A": _gather(0.0, 0.0),
        "B": _gather(150.0, 0.0),
        "C": _gather(150.0, 150.0),
        "D": _gather(0.0, 150.0),
    }
