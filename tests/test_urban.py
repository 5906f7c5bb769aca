"""Tests for the urban layer: street mobility, urban_grid topology, urban spec."""

from __future__ import annotations

import random

import pytest

from repro.experiments import (
    ExperimentConfig,
    available_experiments,
    available_topologies,
    get_builder,
    get_experiment,
    get_topology,
    run_protocol_trial,
)
from repro.experiments.sweep import run_experiment
from repro.experiments.topology import UrbanGridTopology
from repro.mobility import ScriptedMobility, street_walk
from repro.simulation import Simulator


# ========================================================== street mobility
LINES = (0.0, 100.0, 200.0, 300.0)


def build_walkers(nodes, seed=7, duration=300.0):
    """A scripted model replaying one street walk per node, drawn in order."""
    rng = random.Random(seed)
    walkers = ScriptedMobility()
    for node_id in nodes:
        walkers.add_node(node_id, street_walk(LINES, LINES, 2.0, 10.0, rng, duration))
    return walkers


def test_street_walk_stays_on_the_street_graph():
    walkers = build_walkers(("n0", "n1"))
    for node in ("n0", "n1"):
        for when in (0.0, 3.7, 42.0, 120.5, 299.0, 1000.0):
            p = walkers.position(node, when)
            # Walking an axis-aligned street keeps the other axis pinned to
            # a centreline.
            on_street = any(abs(p.x - line) < 1e-9 for line in LINES) or any(
                abs(p.y - line) < 1e-9 for line in LINES
            )
            assert on_street, f"{node} left the street graph at t={when}: {p}"
            assert -1e-9 <= p.x <= 300.0 + 1e-9
            assert -1e-9 <= p.y <= 300.0 + 1e-9


def test_street_walk_is_deterministic_and_query_order_independent():
    first = build_walkers(("a", "b"), seed=3)
    second = build_walkers(("a", "b"), seed=3)
    times = (0.0, 5.0, 17.3, 80.0, 250.0)
    forward = [(n, t, first.position(n, t)) for n in ("a", "b") for t in times]
    backward = [
        (n, t, second.position(n, t)) for n in ("b", "a") for t in reversed(times)
    ]
    table = {(n, t): p for n, t, p in backward}
    for n, t, p in forward:
        assert table[(n, t)] == p
    # A different stream draws a different walk.
    other = build_walkers(("a",), seed=4)
    assert any(
        other.position("a", t) != first.position("a", t) for t in times
    )


def test_street_walk_covers_duration_and_bounds_speed():
    trace = street_walk(LINES, LINES, 2.0, 10.0, random.Random(7), 200.0)
    assert trace[0].time == 0.0 and trace[-1].time >= 200.0
    walkers = ScriptedMobility()
    walkers.add_node("a", trace)
    bound = walkers.speed_bound()
    assert 0.0 < bound <= 10.0 + 1e-9
    # Past its trace the node rests at its final intersection.
    resting = walkers.position("a", 10_000.0)
    assert walkers.position("a", 20_000.0) == resting


def test_street_grid_validation():
    with pytest.raises(ValueError, match="two streets"):
        street_walk((0.0,), (0.0, 10.0), 1.0, 2.0, random.Random(1), 10.0)
    with pytest.raises(ValueError, match="speed"):
        street_walk((0.0, 10.0), (0.0, 10.0), 0.0, 2.0, random.Random(1), 10.0)
    with pytest.raises(ValueError, match="duration"):
        street_walk((0.0, 10.0), (0.0, 10.0), 1.0, 2.0, random.Random(1), 0.0)


# ======================================================= urban_grid topology
def test_urban_grid_registered():
    assert "urban_grid" in available_topologies()
    assert isinstance(get_topology("urban_grid"), UrbanGridTopology)


def test_urban_grid_places_everyone_on_streets_outside_buildings():
    config = ExperimentConfig.small().with_overrides(topology="urban_grid")
    topology = get_topology("urban_grid")
    sim = Simulator(seed=9)
    names = topology.node_names(config)
    mobility = topology.build_mobility(config, sim, names)
    environment = topology.build_environment(config)
    assert environment is not None and bool(environment)
    lines, _ = topology.geometry(config)
    for node_id in names["stationary"]:
        p = mobility.position(node_id, 0.0)
        assert p.x in lines and p.y in lines  # repositories sit at intersections
    for node_id in topology.mobile_ids(names):
        for when in (0.0, 30.0, 150.0, 390.0):
            p = mobility.position(node_id, when)
            assert not environment.contains(p.x, p.y), (
                f"{node_id} walked into a building at t={when}: {p}"
            )


def test_urban_grid_environment_scales_with_density():
    topology = get_topology("urban_grid")
    blocks = topology.BLOCKS ** 2
    config = ExperimentConfig.small().with_overrides(topology="urban_grid")

    def built(density):
        env = topology.build_environment(config.with_overrides(obstacle_density=density))
        return env.obstacles

    assert built(0.0) == ()
    assert len(built(1.0)) == blocks
    half = built(0.5)
    assert 0 < len(half) < blocks
    # Densities grow the same city monotonically: lower densities are
    # prefixes of higher ones.
    assert half == built(1.0)[: len(half)]


def test_urban_scenario_threads_environment_into_the_medium():
    config = ExperimentConfig.tiny().with_overrides(
        topology="urban_grid", propagation="obstacle"
    )
    scenario = get_builder("dapes").build(config, 3)
    assert scenario.environment is not None
    assert scenario.medium.environment is scenario.environment
    assert scenario.medium.propagation.environment is scenario.environment
    # Open-field topologies emit no environment.
    open_field = get_builder("dapes").build(ExperimentConfig.tiny(), 3)
    assert open_field.environment is None


def test_urban_trial_profiles_occlusion_counters():
    config = ExperimentConfig.tiny().with_overrides(
        topology="urban_grid", propagation="obstacle",
        max_duration=60.0, profile=True,
    )
    result = run_protocol_trial("dapes", config, seed=5)
    assert result.profile["wireless.link_evaluations"] > 0
    # One ray test per in-range link evaluation; nothing is memoized.
    assert 0 < result.profile["propagation.occlusion_checks"] <= result.profile["wireless.link_evaluations"]
    assert "propagation.occlusion_cache_hits" not in result.profile


# =============================================================== urban spec
def test_urban_spec_registered_with_aliases():
    assert "urban" in available_experiments()
    spec = get_experiment("urban")
    assert get_experiment("city") is spec
    assert get_experiment("urban_grid") is spec
    assert spec.overrides["topology"] == "urban_grid"
    protocols = {variant.protocol for variant in spec.variants}
    assert protocols == {"dapes", "bithoc"}


def test_urban_spec_shows_obstacle_gap_on_the_same_seed():
    # Eight trials: one tiny() download takes under a second, too short a
    # sample for a 1.2x claim.
    config = ExperimentConfig.tiny().with_overrides(max_duration=120.0, trials=8)
    result = run_experiment("urban", config, axes={"obstacle_density": (1.0,)})
    by_label = {point.label: point for point in result.points}
    for protocol in ("DAPES", "Bithoc"):
        open_field = by_label[f"{protocol} / unit-disk"]
        walled = by_label[f"{protocol} / obstacle"]
        # Same seed, same topology, same workload: the only difference is
        # the physics — walls must measurably slow the distribution down.
        assert walled.download_time > open_field.download_time * 1.2, (
            protocol, walled.download_time, open_field.download_time,
        )


def test_urban_spec_density_zero_is_physics_independent():
    config = ExperimentConfig.tiny().with_overrides(max_duration=120.0)
    result = run_experiment("urban", config, axes={"obstacle_density": (0.0,)})
    by_label = {point.label: point for point in result.points}
    assert (
        by_label["DAPES / unit-disk"].download_time
        == by_label["DAPES / obstacle"].download_time
    )
    assert (
        by_label["Bithoc / unit-disk"].transmissions
        == by_label["Bithoc / obstacle"].transmissions
    )
