"""Tests for the pluggable propagation layer.

Four pillars, mirroring how the delivery and spatial-index refactors are
pinned:

* **Registry & validation** — model selection, parameter validation and the
  cell-sizing consistency checks in :class:`ChannelConfig`.
* **unit_disk equivalence** — the generic model-filter path must be
  byte-identical to the trivial seed fast path, asserted micro-world- and
  registered-spec-level via a test-only non-trivial unit-disk subclass.
* **log_distance determinism** — rerunning a trial, reordering link
  queries, and serial-vs-parallel sweeps must all agree.
* **obstacle occlusion** — geometry (rectangle-culled ray tests against the
  flat all-walls reference), ray-test accounting and lossy wall penetration.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentConfig, run_protocol_trial
from repro.experiments.sweep import run_experiment
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import (
    ChannelConfig,
    Environment,
    Obstacle,
    Radio,
    UnitDiskPropagation,
    WirelessMedium,
    available_propagation_models,
    build_propagation,
    register_propagation,
    segments_intersect,
)
from repro.wireless.propagation import (
    LogDistancePropagation,
    ObstaclePropagation,
    propagation_max_range,
)
from repro.wireless.spatial import GridNeighborIndex, build_neighbor_index

from oracles import oracle


@register_propagation("unit_disk_exact")
class ExactUnitDisk(UnitDiskPropagation):
    """unit_disk forced through the generic per-link evaluation path."""

    trivial = False


# ================================================== registry and validation
def test_registry_ships_all_three_models():
    names = available_propagation_models()
    assert {"unit_disk", "log_distance", "obstacle"} <= set(names)


def test_unknown_model_and_bad_params_raise_at_config_time():
    with pytest.raises(ValueError, match="unknown propagation model"):
        ChannelConfig(propagation="warp-drive")
    with pytest.raises(ValueError, match="has no parameter"):
        ChannelConfig(propagation="unit_disk", propagation_params={"exponent": 2.0})
    with pytest.raises(ValueError, match="exponent"):
        ChannelConfig(propagation="log_distance", propagation_params={"exponent": -1.0})
    with pytest.raises(ValueError, match="cutoff"):
        ChannelConfig(propagation="log_distance", propagation_params={"cutoff": 0.9})
    with pytest.raises(ValueError, match="occluded_loss"):
        ChannelConfig(propagation="obstacle", propagation_params={"occluded_loss": 2.0})


def test_config_max_range_follows_the_model():
    assert ChannelConfig(wifi_range=60.0).max_range() == 60.0
    config = ChannelConfig(
        wifi_range=60.0, propagation="log_distance", propagation_params={"cutoff": 1.5}
    )
    assert config.max_range() == pytest.approx(90.0)
    assert config.max_range(40.0) == pytest.approx(60.0)
    assert propagation_max_range("obstacle", {}, 80.0) == 80.0


def test_grid_cell_defaults_to_the_models_max_range():
    mobility = StaticPlacement({"a": (0.0, 0.0)})
    config = ChannelConfig(
        wifi_range=60.0, propagation="log_distance", propagation_params={"cutoff": 1.5}
    )
    index = build_neighbor_index(config, mobility, max_range=config.max_range())
    assert isinstance(index, GridNeighborIndex)
    assert index.cell_size == pytest.approx(90.0)
    # Explicit cell sizes still win when they are consistent.
    sized = build_neighbor_index(
        ChannelConfig(index_cell_size=30.0), mobility, max_range=60.0
    )
    assert sized.cell_size == 30.0


def test_inconsistent_cell_size_override_raises():
    with pytest.raises(ValueError, match="inconsistent"):
        ChannelConfig(wifi_range=100.0, index_cell_size=5.0)
    # The bound follows the model's true reach, not the nominal range.
    with pytest.raises(ValueError, match="inconsistent"):
        ChannelConfig(
            wifi_range=60.0,
            index_cell_size=9.0,
            propagation="log_distance",
            propagation_params={"cutoff": 1.5},
        )


def test_inconsistent_per_radio_range_override_raises_at_attach():
    sim = Simulator(seed=1)
    medium = WirelessMedium(sim, StaticPlacement({"a": (0.0, 0.0)}))
    with pytest.raises(ValueError, match="inconsistent wifi_range"):
        Radio(sim, medium, "a", wifi_range=-5.0)
    with pytest.raises(ValueError, match="inconsistent wifi_range"):
        Radio(sim, medium, "a", wifi_range=math.inf)


# ======================================================= unit_disk fidelity
def _micro_fingerprint(propagation, *, index="grid", ranges=None, seed=5):
    """A small mobile-free world driven to completion; every observable."""
    sim = Simulator(seed=seed)
    positions = {
        "a": (0.0, 0.0), "b": (40.0, 0.0), "c": (80.0, 0.0),
        "d": (40.0, 50.0), "e": (200.0, 200.0),
    }
    with oracle(index=index):
        medium = WirelessMedium(
            sim,
            StaticPlacement(positions),
            ChannelConfig(wifi_range=60.0, loss_rate=0.2, propagation=propagation),
        )
    radios = {
        node: Radio(sim, medium, node, wifi_range=(ranges or {}).get(node))
        for node in positions
    }
    received = []
    for node, radio in radios.items():
        radio.on_receive = lambda frame, node=node: received.append((node, frame.sender))
    for index, node in enumerate(("a", "b", "c", "d")):
        for burst in range(3):
            sim.schedule_call(0.001 * index + 0.004 * burst, radios[node].broadcast,
                              f"{node}-{burst}", 800, "t")
        radios[node].unicast("b" if node != "b" else "a", f"u-{node}", 400, kind="t")
    sim.run()
    return {
        "events": sim.events_processed,
        "now": sim.now,
        "stats": medium.stats.as_dict(),
        "received": received,
        "neighbours": {node: medium.neighbours_of(node) for node in positions},
    }


def test_generic_path_matches_trivial_fast_path_micro():
    assert _micro_fingerprint("unit_disk") == _micro_fingerprint("unit_disk_exact")


def test_generic_path_matches_trivial_fast_path_with_range_overrides():
    ranges = {"a": 100.0, "b": 20.0, "c": 75.0}
    assert _micro_fingerprint("unit_disk", ranges=ranges) == _micro_fingerprint(
        "unit_disk_exact", ranges=ranges
    )


def _spec_fingerprint(name, propagation, workers=None):
    config = ExperimentConfig.tiny().with_overrides(
        max_duration=60.0, propagation=propagation
    )
    axes = {"wifi_range": (60.0,)} if name == "fig9a" else None
    return run_experiment(name, config, axes=axes, workers=workers).to_json()


@pytest.mark.parametrize("name", ["fig9a", "fig10"])
def test_registered_specs_byte_identical_across_unit_disk_paths(name):
    assert _spec_fingerprint(name, "unit_disk") == _spec_fingerprint(name, "unit_disk_exact")


# =============================================== grid vs brute equivalence
@pytest.mark.parametrize("propagation", ["unit_disk", "unit_disk_exact", "log_distance", "obstacle"])
def test_micro_world_identical_across_spatial_backends(propagation):
    ranges = {"a": 100.0, "b": 20.0, "d": 75.0}
    assert _micro_fingerprint(propagation, index="grid", ranges=ranges) == \
        _micro_fingerprint(propagation, index="brute", ranges=ranges)


@pytest.mark.parametrize("propagation", ["unit_disk", "log_distance", "obstacle"])
def test_urban_trial_identical_across_spatial_backends(propagation):
    results = {}
    config = ExperimentConfig.tiny().with_overrides(
        topology="urban_grid", max_duration=90.0, propagation=propagation,
    )
    for backend in ("grid", "brute"):
        with oracle(index=backend):
            results[backend] = run_protocol_trial("dapes", config, seed=11)
    assert results["grid"] == results["brute"]
    assert results["grid"].transmissions > 0


# ==================================================== log_distance physics
def test_log_distance_trials_are_deterministic():
    config = ExperimentConfig.tiny().with_overrides(
        max_duration=90.0, propagation="log_distance",
        propagation_params={"exponent": 3.0, "sigma": 0.3, "cutoff": 1.25},
    )
    first = run_protocol_trial("dapes", config, seed=13)
    second = run_protocol_trial("dapes", config, seed=13)
    assert first == second
    assert first.transmissions > 0


def test_log_distance_serial_equals_parallel():
    serial = _spec_fingerprint("fig9a", "log_distance", workers=1)
    parallel = _spec_fingerprint("fig9a", "log_distance", workers=2)
    assert serial == parallel


def test_log_distance_link_quality_is_query_order_independent():
    def build(seed=21):
        sim = Simulator(seed=seed)
        model = build_propagation(
            ChannelConfig(propagation="log_distance", propagation_params={"sigma": 0.4}),
            sim=sim,
        )
        return model

    pairs = [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")]
    quality = {}
    for pair in pairs:
        quality[pair] = build().link_quality((0, 0), (50, 0), 50.0, 60.0, None, pair)
    reordered = {}
    model = build()
    for pair in reversed(pairs):
        reordered[pair] = model.link_quality((0, 0), (50, 0), 50.0, 60.0, None, pair)
    assert quality == reordered
    # Shadowing is symmetric: the pair, not the direction, owns the factor.
    assert model.link_quality((0, 0), (50, 0), 50.0, 60.0, None, ("b", "a")) == quality[("a", "b")]
    # Different salt (seed) => different shadowing.
    other = build(seed=99).link_quality((0, 0), (50, 0), 50.0, 60.0, None, ("a", "b"))
    assert other != quality[("a", "b")]


def test_log_distance_loss_grows_with_distance_and_cuts_off():
    model = LogDistancePropagation({"exponent": 3.0, "sigma": 0.0, "cutoff": 1.25})
    near = model.link_quality((0, 0), (10, 0), 10.0, 60.0, None, ("a", "b"))
    far = model.link_quality((0, 0), (70, 0), 70.0, 60.0, None, ("a", "b"))
    assert 0.0 < near < far < 1.0
    assert model.link_quality((0, 0), (80, 0), 80.0, 60.0, None, ("a", "b")) is None
    assert model.max_range(60.0) == pytest.approx(75.0)


# ========================================================== obstacle model
def test_segment_intersection_basics():
    assert segments_intersect(0, 0, 10, 10, 0, 10, 10, 0)       # proper cross
    assert not segments_intersect(0, 0, 10, 0, 0, 5, 10, 5)     # parallel
    assert segments_intersect(0, 0, 10, 0, 5, 0, 15, 0)         # collinear overlap
    assert not segments_intersect(0, 0, 4, 0, 5, 0, 15, 0)      # collinear apart
    assert segments_intersect(0, 0, 10, 0, 5, -5, 5, 0)         # endpoint touch


def test_environment_occlusion_and_containment():
    env = Environment(obstacles=[Obstacle(20.0, 20.0, 40.0, 40.0)], walls=[(60, 0, 60, 100)])
    assert env.occludes(0, 30, 100, 30)       # through the building
    assert env.occludes(50, 30, 70, 30)       # through the free wall
    assert not env.occludes(0, 50, 50, 50)    # clear of both
    assert env.contains(30, 30)
    assert not env.contains(10, 10)
    assert bool(env)
    assert not bool(Environment())
    with pytest.raises(ValueError):
        Obstacle(10.0, 10.0, 10.0, 20.0)


def occludes_flat(env: Environment, ax, ay, bx, by) -> bool:
    """The reference: every wall in turn, box reject then exact test."""
    ray_box = (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
    for wx0, wy0, wx1, wy1 in env.walls:
        if (
            max(wx0, wx1) < ray_box[0] or min(wx0, wx1) > ray_box[2]
            or max(wy0, wy1) < ray_box[1] or min(wy0, wy1) > ray_box[3]
        ):
            continue
        if segments_intersect(ax, ay, bx, by, wx0, wy0, wx1, wy1):
            return True
    return False


# Obstacles, free walls and most ray endpoints share one small lattice, so
# rays through corners, along walls and of zero length turn up all the time;
# the rest are arbitrary floats.
_lattice = st.integers(min_value=0, max_value=12).map(float)
_ordinate = st.one_of(_lattice, _lattice, st.floats(min_value=-2.0, max_value=14.0, allow_nan=False))
_obstacle = st.tuples(_lattice, _lattice, _lattice, _lattice).filter(
    lambda r: r[0] != r[2] and r[1] != r[3]
).map(lambda r: (min(r[0], r[2]), min(r[1], r[3]), max(r[0], r[2]), max(r[1], r[3])))
_wall = st.tuples(_lattice, _lattice, _lattice, _lattice)
_ray = st.tuples(_ordinate, _ordinate, _ordinate, _ordinate)


@settings(max_examples=200, deadline=None)
@given(
    obstacles=st.lists(_obstacle, max_size=5),
    walls=st.lists(_wall, max_size=3),
    rays=st.lists(_ray, min_size=1, max_size=20),
)
def test_rectangle_culled_occlusion_matches_the_flat_wall_scan(obstacles, walls, rays):
    env = Environment(obstacles=obstacles, walls=walls)
    assert len(env.walls) == 4 * len(obstacles) + len(walls)
    probes = list(rays)
    for x0, y0, x1, y1 in obstacles:
        probes += [
            (x0, y0, x0, y0),                  # a point on a corner
            (x0 - 1.0, y0 - 1.0, x0, y0),      # ends on a corner
            (x0 - 1.0, y0 + 1.0, x0 + 1.0, y0 - 1.0),  # clips a corner diagonally
            (x0 - 2.0, y0, x1 + 2.0, y0),      # runs along a wall and beyond
            (x0, y0, x1, y0),                  # is a wall
            ((x0 + x1) / 2, (y0 + y1) / 2, (x0 + x1) / 2, (y0 + y1) / 2),  # a point inside
        ]
    for ray in probes:
        expected = occludes_flat(env, *ray)
        assert env.occludes(*ray) == expected, ray
        assert env.occludes(ray[2], ray[3], ray[0], ray[1]) == occludes_flat(
            env, ray[2], ray[3], ray[0], ray[1]
        ), ray


def test_obstacle_model_blocks_and_penetrates():
    env = Environment(obstacles=[(40, -10, 50, 10)])
    blocked = ObstaclePropagation()
    blocked.bind(environment=env)
    assert blocked.link_quality((0, 0), (80, 0), 80.0, 100.0, None, ("a", "b")) is None
    assert blocked.link_quality((0, 20), (80, 20), 80.0, 100.0, None, ("a", "c")) == 0.0
    lossy = ObstaclePropagation({"occluded_loss": 0.8})
    lossy.bind(environment=env)
    assert lossy.link_quality((0, 0), (80, 0), 80.0, 100.0, None, ("a", "b")) == 0.8
    # No environment: pure unit-disk semantics.
    open_field = ObstaclePropagation()
    open_field.bind(environment=None)
    assert open_field.link_quality((0, 0), (80, 0), 80.0, 100.0, None, ("a", "b")) == 0.0
    assert open_field.link_quality((0, 0), (120, 0), 120.0, 100.0, None, ("a", "b")) is None


def test_obstacle_model_counts_ray_tests_and_answers_both_directions_alike():
    env = Environment(obstacles=[(40, -10, 50, 10)])
    model = ObstaclePropagation()
    model.bind(environment=env)
    assert model.link_quality((0, 0), (80, 0), 80.0, 100.0, None, ("a", "b")) is None
    assert model.occlusion_checks == 1
    # Same pair from the other end: a ray test of its own, the same verdict.
    assert model.link_quality((80, 0), (0, 0), 80.0, 100.0, None, ("b", "a")) is None
    assert model.occlusion_checks == 2
    # The pair moved clear of the building.
    assert model.link_quality((0, 20), (80, 20), 80.0, 100.0, None, ("a", "b")) == 0.0
    assert model.occlusion_checks == 3
    # Out of range: no ray is cast.
    assert model.link_quality((0, 0), (120, 0), 120.0, 100.0, None, ("a", "b")) is None
    assert model.occlusion_checks == 3


def test_obstacle_model_casts_the_ray_from_the_smaller_id():
    """Both directions of a link must run the *same* float computation."""
    rays = []

    class Recording(Environment):
        __slots__ = ()

        def occludes(self, ax, ay, bx, by):
            rays.append((ax, ay, bx, by))
            return super().occludes(ax, ay, bx, by)

    model = ObstaclePropagation()
    model.bind(environment=Recording(obstacles=[(40, -10, 50, 10)]))
    model.link_quality((0.0, 1.0), (80.0, 2.0), 80.0, 100.0, None, ("a", "b"))
    model.link_quality((80.0, 2.0), (0.0, 1.0), 80.0, 100.0, None, ("b", "a"))
    assert rays == [(0.0, 1.0, 80.0, 2.0)] * 2


def test_obstacle_medium_end_to_end_blocks_and_profiles():
    env = Environment(obstacles=[(40, -10, 50, 10)])
    sim = Simulator(seed=3)
    placement = StaticPlacement({"a": (0.0, 0.0), "b": (80.0, 0.0), "c": (0.0, 30.0)})
    medium = WirelessMedium(
        sim, placement,
        ChannelConfig(wifi_range=100.0, loss_rate=0.0, propagation="obstacle"),
        environment=env,
    )
    radios = {node: Radio(sim, medium, node) for node in ("a", "b", "c")}
    received = []
    for node in ("b", "c"):
        radios[node].on_receive = lambda frame, node=node: received.append(node)
    radios["a"].broadcast("hello", 500, kind="t")
    sim.run()
    assert received == ["c"]  # b is behind the building
    assert medium.link_evaluations > 0
    assert medium.propagation.occlusion_checks > 0
    assert medium.neighbours_of("a") == ["c"]
