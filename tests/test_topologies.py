"""Tests for the pluggable topology registry and the shipped layouts."""

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
