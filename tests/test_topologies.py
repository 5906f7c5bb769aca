"""Tests for the pluggable topology registry and the shipped layouts."""

import math
import random

import pytest

from repro.experiments import (
    ExperimentConfig,
    available_topologies,
    get_builder,
    get_topology,
    run_protocol_trial,
)
from repro.experiments.topology import (
    ClusteredTopology,
    CorridorTopology,
    QuadrantTopology,
    Topology,
    register_topology,
)
from repro.simulation import Simulator


def test_registry_ships_the_paper_topology_plus_new_workloads():
    names = available_topologies()
    assert "quadrant" in names
    assert "clusters" in names
    assert "corridor" in names
    assert isinstance(get_topology("quadrant"), QuadrantTopology)
    assert isinstance(get_topology("clusters"), ClusteredTopology)
    assert isinstance(get_topology("corridor"), CorridorTopology)


def test_unknown_topology_rejected():
    with pytest.raises(ValueError):
        get_topology("moebius-strip")
    with pytest.raises(ValueError):
        get_builder("dapes").build(ExperimentConfig.tiny().with_overrides(topology="nope"), 1)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):

        @register_topology("quadrant")
        class Duplicate(Topology):  # pragma: no cover - never instantiated
            def build_mobility(self, config, sim, names):
                raise NotImplementedError


def test_node_names_cover_all_roles():
    config = ExperimentConfig.small()
    names = get_topology("quadrant").node_names(config)
    assert len(names["stationary"]) == config.stationary_nodes
    assert len(names["downloaders"]) == config.mobile_downloaders
    assert len(names["pure"]) == config.pure_forwarders
    assert len(names["intermediate"]) == config.intermediate_nodes


def test_clusters_confine_mobile_nodes_to_their_cell():
    config = ExperimentConfig.small()
    topology = get_topology("clusters")
    sim = Simulator(seed=5)
    names = topology.node_names(config)
    mobility = topology.build_mobility(config, sim, names)
    cell = config.area_size / ClusteredTopology.GRID
    mobile = topology.mobile_ids(names)
    for node_id in mobile:
        home = None
        for when in (0.0, 50.0, 200.0, 400.0):
            p = mobility.position(node_id, when)
            cell_key = (min(int(p.x // cell), 1), min(int(p.y // cell), 1))
            if home is None:
                home = cell_key
            assert cell_key == home, f"{node_id} left its home cell at t={when}"


def test_corridor_repositories_form_a_chain_on_the_midline():
    config = ExperimentConfig.small()
    topology = get_topology("corridor")
    sim = Simulator(seed=5)
    names = topology.node_names(config)
    mobility = topology.build_mobility(config, sim, names)
    xs = []
    for node_id in names["stationary"]:
        p = mobility.position(node_id, 0.0)
        assert p.y == pytest.approx(config.area_size / 2)
        xs.append(p.x)
    assert xs == sorted(xs)
    length = config.area_size * CorridorTopology.ASPECT
    assert all(0 < x < length for x in xs)
    # Mobile nodes stay inside the strip.
    for node_id in topology.mobile_ids(names)[:4]:
        for when in (0.0, 100.0, 300.0):
            p = mobility.position(node_id, when)
            assert -1e-6 <= p.x <= length + 1e-6
            assert -1e-6 <= p.y <= config.area_size + 1e-6


@pytest.mark.parametrize("topology", ["clusters", "corridor"])
def test_new_topologies_run_end_to_end(topology):
    config = ExperimentConfig.tiny().with_overrides(topology=topology, max_duration=120.0)
    result = run_protocol_trial("dapes", config, seed=7)
    assert result.transmissions > 0
    assert result.events > 0


def test_scenario_uses_configured_topology():
    config = ExperimentConfig.tiny().with_overrides(topology="corridor")
    scenario = get_builder("dapes").build(config, 3)
    length = config.area_size * CorridorTopology.ASPECT
    p = scenario.medium.mobility.position("repo-0", 0.0)
    assert 0 < p.x < length
    assert p.y == pytest.approx(config.area_size / 2)


# ------------------------------------------------ mobility contract per world
# The grid index reuses a neighbour set until a horizon derived from
# speed_bound() and keyed by mobility_version(), and compares snapshots taken
# in whatever order senders happen to ask; that is only sound if every world
# a trial runs on keeps the MobilityModel contract, not just each model alone.
def _world(name, seed=11):
    config = ExperimentConfig.tiny().with_overrides(topology=name)
    topology = get_topology(name)
    names = topology.node_names(config)
    mobility = topology.build_mobility(config, Simulator(seed=seed), names)
    node_ids = [node_id for role in names.values() for node_id in role]
    times = [index * 0.73 for index in range(int((config.max_duration + 90.0) / 0.73))]
    return mobility, node_ids, times


@pytest.mark.parametrize("name", available_topologies())
def test_every_world_keeps_the_mobility_contract(name):
    mobility, node_ids, times = _world(name)
    version = mobility.mobility_version()
    bound = mobility.speed_bound()
    assert bound >= 0.0
    answers = {}
    for node_id in node_ids:
        previous = None
        for time in times:
            x, y = answers[node_id, time] = mobility.position_xy(node_id, time)
            if previous is not None:
                # Observed drift never outruns the bound the grid index trusts.
                limit = bound * (time - previous[0])
                assert math.hypot(x - previous[1], y - previous[2]) <= limit * (1 + 1e-9) + 1e-9, (
                    name, node_id, time,
                )
            previous = (time, x, y)
    # Pure queries are not mutations.
    assert mobility.mobility_version() == version
    assert mobility.speed_bound() == bound

    # A rebuilt world answers bit-identically in any query order.
    rebuilt, _, _ = _world(name)
    queries = list(answers)
    random.Random(5).shuffle(queries)
    for node_id, time in queries:
        x, y = rebuilt.position_xy(node_id, time)
        expected_x, expected_y = answers[node_id, time]
        assert (x.hex(), y.hex()) == (expected_x.hex(), expected_y.hex()), (name, node_id, time)
    assert rebuilt.mobility_version() == version
