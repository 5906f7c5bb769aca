"""The fault subsystem: models, registry, lifecycle manager, invariants.

Covers the deterministic model contract (plans are pure functions of the
per-entity named streams), the ``register_fault`` registry, the manager's
link/partition/stall/degrade state machine against a live micro medium,
the ``fault_`` config-override prefix, the invariant monitor, and —
critically — the zero-fault path: ``faults="none"`` must build no manager,
schedule no events and leave every result byte-identical to a pre-fault
run (asserted end-to-end in test_fault_equivalence.py).
"""

from __future__ import annotations

import pytest

from repro.faults import (
    DEGRADE,
    LINK,
    PARTITION,
    SPATIAL,
    STALL,
    Degrade,
    FaultEpisode,
    FaultManager,
    FaultModel,
    FaultPlan,
    InvariantMonitor,
    InvariantViolationError,
    LinkFlap,
    Partition,
    Stall,
    available_fault_models,
    build_fault_manager,
    build_fault_model,
    build_invariant_monitor,
    fault_node_ids,
    pair_key,
    validate_faults,
)
from repro.experiments import ExperimentConfig, get_experiment
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio, WirelessMedium


def make_stream(seed=1):
    sim = Simulator(seed=seed)
    return lambda entity: sim.rng(f"faults.{entity}")


# ================================================================== registry
def test_builtin_models_registered():
    assert set(available_fault_models()) >= {
        "none", "link_flap", "partition", "stall", "degrade",
    }


def test_parameter_values_validated():
    for name, params in (
        ("link_flap", {"mean_down": -1.0}),
        ("link_flap", {"pair_fraction": 1.5}),
        ("partition", {"fraction": 1.0}),
        ("partition", {"mode": "diagonal"}),
        ("stall", {"node_fraction": -0.1}),
        ("degrade", {"duty": 0.0}),
        ("degrade", {"severity": 2.0}),
    ):
        with pytest.raises(ValueError):
            validate_faults(name, params)


def test_none_model_plans_nothing_and_draws_nothing():
    calls = []

    def stream(entity):
        calls.append(entity)

    plan = build_fault_model("none").plan(["a", "b"], 100.0, stream)
    assert plan.empty
    assert calls == []


# ================================================================== episodes
def test_episode_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultEpisode("meteor", 0.0, 1.0)
    with pytest.raises(ValueError, match="end"):
        FaultEpisode(LINK, 5.0, 5.0, subject=("a", "b"))
    with pytest.raises(ValueError, match="severity"):
        FaultEpisode(LINK, 0.0, 1.0, subject=("a", "b"), severity=0.0)
    with pytest.raises(ValueError, match="pair"):
        FaultEpisode(LINK, 0.0, 1.0, subject="a")
    with pytest.raises(ValueError, match="node id"):
        FaultEpisode(STALL, 0.0, 1.0, subject=())
    episode = FaultEpisode(PARTITION, 2.0, 5.0, subject=("a", "b"))
    assert episode.duration == 3.0


# ==================================================================== models
def test_link_flap_plan_is_deterministic_and_bounded():
    model = LinkFlap({"mean_up": 5.0, "mean_down": 2.0, "pair_fraction": 1.0})
    plan_a = model.plan(["a", "b", "c"], 60.0, make_stream(3))
    plan_b = model.plan(["a", "b", "c"], 60.0, make_stream(3))
    assert plan_a == plan_b
    assert not plan_a.empty
    for episode in plan_a.episodes:
        assert episode.kind == LINK
        assert episode.subject == pair_key(*episode.subject)
        assert 0.0 <= episode.start < episode.end <= 60.0
    starts = [episode.start for episode in plan_a.episodes]
    assert starts == sorted(starts)


def test_link_flap_adding_a_node_never_shifts_existing_pairs():
    """Per-pair streams: pair (a, b)'s episodes are a function of that pair
    alone, so growing the population cannot reshuffle anyone's outages."""
    model = LinkFlap({"mean_up": 5.0, "mean_down": 2.0, "pair_fraction": 1.0})
    small = model.plan(["a", "b"], 60.0, make_stream(3))
    large = model.plan(["a", "b", "z"], 60.0, make_stream(3))
    ab_small = [e for e in small.episodes if e.subject == ("a", "b")]
    ab_large = [e for e in large.episodes if e.subject == ("a", "b")]
    assert ab_small == ab_large


def test_link_flap_pair_fraction_zero_plans_nothing():
    model = LinkFlap({"pair_fraction": 0.0})
    assert model.plan(["a", "b", "c"], 100.0, make_stream()).empty


def test_partition_membership_plan():
    model = Partition({"at": 10.0, "duration": 5.0, "fraction": 0.5})
    plan = model.plan(["a", "b", "c", "d"], 100.0, make_stream(2))
    assert len(plan.episodes) == 1
    episode = plan.episodes[0]
    assert episode.kind == PARTITION
    assert (episode.start, episode.end) == (10.0, 15.0)
    assert isinstance(episode.subject, tuple)
    assert len(episode.subject) == 2  # half of four nodes
    assert set(episode.subject) < {"a", "b", "c", "d"}
    # Same streams, same split.
    assert model.plan(["a", "b", "c", "d"], 100.0, make_stream(2)) == plan


def test_partition_repeats_and_spatial_mode():
    model = Partition({"at": 10.0, "duration": 5.0, "repeat_every": 30.0,
                       "mode": "spatial", "fraction": 0.25})
    plan = model.plan(["a", "b", "c", "d"], 100.0, make_stream())
    assert [e.start for e in plan.episodes] == [10.0, 40.0, 70.0]
    for episode in plan.episodes:
        assert episode.subject == (SPATIAL, 0.25)


def test_stall_plan_targets_a_node_subset():
    model = Stall({"mean_active": 5.0, "mean_stalled": 2.0, "node_fraction": 1.0})
    plan = model.plan(["a", "b"], 60.0, make_stream(5))
    assert not plan.empty
    assert {e.subject for e in plan.episodes} <= {"a", "b"}
    for episode in plan.episodes:
        assert episode.kind == STALL
        assert episode.end <= 60.0


def test_degrade_square_wave_is_exact_and_rng_free():
    calls = []

    def stream(entity):
        calls.append(entity)

    model = Degrade({"period": 20.0, "duty": 0.25, "severity": 0.5})
    plan = model.plan(["a"], 60.0, stream)
    assert calls == []  # pure arithmetic, no streams
    assert [(e.start, e.end) for e in plan.episodes] == [
        (15.0, 20.0), (35.0, 40.0), (55.0, 60.0),
    ]
    for episode in plan.episodes:
        assert episode.kind == DEGRADE
        assert episode.severity == 0.5


# ================================================================== manager
class Scripted(FaultModel):
    """A fault model replaying a fixed episode list (mirrors TraceChurn)."""

    name = "scripted-test"

    def __init__(self, episodes):
        super().__init__({})
        self.episodes = tuple(episodes)

    def plan(self, node_ids, horizon, stream):
        return FaultPlan(episodes=self.episodes)


def micro_world(seed=3, loss_rate=0.0):
    sim = Simulator(seed=seed)
    positions = {"a": (0.0, 0.0), "b": (30.0, 0.0), "c": (55.0, 0.0)}
    medium = WirelessMedium(
        sim,
        StaticPlacement(positions),
        ChannelConfig(wifi_range=40.0, loss_rate=loss_rate),
    )
    radios = {node: Radio(sim, medium, node) for node in positions}
    return sim, medium, radios


def manager_with(sim, medium, episodes, horizon=100.0):
    manager = FaultManager(sim, medium, Scripted(episodes), ["a", "b", "c"], horizon)
    manager.activate()
    return manager


def deliveries_into(radios):
    received = []
    for node, radio in radios.items():
        radio.on_receive = (
            lambda frame, node=node: received.append((node, frame.sender, frame.kind))
        )
    return received


def test_link_block_suppresses_and_heals():
    sim, medium, radios = micro_world()
    received = deliveries_into(radios)
    manager = manager_with(
        sim, medium, [FaultEpisode(LINK, 1.0, 2.0, subject=("a", "b"))]
    )
    sim.schedule_call(1.5, radios["a"].broadcast, "mid-fault", 500, "t1")
    sim.schedule_call(3.0, radios["a"].broadcast, "healed", 500, "t2")
    sim.run()
    kinds_at_b = [kind for node, _, kind in received if node == "b"]
    assert kinds_at_b == ["t2"]  # t1 was blocked by the down link
    assert manager.link_blocks == 1
    assert manager.metrics()["faults.active_time"] == pytest.approx(1.0)


def test_blocked_links_hide_neighbours():
    sim, medium, radios = micro_world()
    manager_with(sim, medium, [FaultEpisode(LINK, 1.0, 2.0, subject=("a", "b"))])
    sim.run(until=1.5)
    assert medium.neighbours_of("a") == []  # b was a's only reachable peer
    sim.run(until=3.0)
    assert medium.neighbours_of("a") == ["b"]


def test_partition_blocks_cross_boundary_only():
    sim, medium, radios = micro_world()
    received = deliveries_into(radios)
    manager = manager_with(
        sim, medium, [FaultEpisode(PARTITION, 1.0, 3.0, subject=("a",))]
    )
    # a -> b crosses the boundary (blocked); b -> c stays inside (clean).
    sim.schedule_call(1.5, radios["a"].broadcast, "cross", 500, "cross")
    sim.schedule_call(2.0, radios["b"].broadcast, "inside", 500, "inside")
    sim.run()
    assert ("b", "a", "cross") not in received
    assert ("c", "b", "inside") in received
    assert manager.partitions_started == 1
    assert manager.partition_heals == 1


def test_partition_heal_records_time_to_recover():
    sim, medium, radios = micro_world()
    deliveries_into(radios)
    manager = manager_with(
        sim, medium, [FaultEpisode(PARTITION, 1.0, 2.0, subject=("a",))]
    )
    # First cross-boundary delivery after the heal closes the recovery watch.
    sim.schedule_call(2.5, radios["a"].broadcast, "knit", 500, "t")
    sim.run()
    assert len(manager.recovery_samples) == 1
    assert manager.recovery_samples[0] == pytest.approx(0.5, abs=0.01)
    metrics = manager.metrics()
    assert metrics["recovery.recovered_partitions"] == 1.0
    assert metrics["recovery.time_to_recover_max"] >= metrics["recovery.time_to_recover_mean"] > 0


def test_spatial_partition_resolves_from_positions():
    sim, medium, radios = micro_world()
    manager = manager_with(
        sim, medium,
        [FaultEpisode(PARTITION, 1.0, 2.0, subject=(SPATIAL, 1.0 / 3.0))],
    )
    sim.run(until=1.5)
    # The westmost third of {a(0), b(30), c(55)} is {a}.
    assert manager.link_extra_loss("a", "b") is None
    assert manager.link_extra_loss("b", "c") == 0.0
    sim.run()


def test_stall_queues_outbound_and_suppresses_inbound():
    sim, medium, radios = micro_world()
    received = deliveries_into(radios)
    manager = manager_with(
        sim, medium, [FaultEpisode(STALL, 1.0, 2.0, subject="b")]
    )
    sim.schedule_call(1.2, radios["b"].broadcast, "outbound", 500, "from-b")
    sim.schedule_call(1.5, radios["a"].broadcast, "inbound", 500, "to-b")
    sim.run()
    # b's frame was queued at 1.2 and replayed at resume; a's frame reached c
    # (in range of nobody else) but was suppressed at b.
    assert manager.stalled_sends == 1
    assert manager.replayed_frames == 1
    assert manager.suppressed_deliveries >= 1
    assert ("b", "a", "to-b") not in received
    assert ("a", "b", "from-b") in received  # the replay, after t=2.0
    assert manager.stall_resumes == 1


def test_heal_callbacks_fire_for_affected_nodes_only():
    sim, medium, radios = micro_world()
    manager = manager_with(
        sim, medium,
        [FaultEpisode(PARTITION, 1.0, 2.0, subject=("a",)),
         FaultEpisode(STALL, 1.0, 3.0, subject="c")],
    )
    healed = []
    for node in ("a", "b", "c"):
        manager.register_heal(node, lambda node=node: healed.append((sim.now, node)))
    sim.run()
    assert healed == [(2.0, "a"), (3.0, "c")]


def test_degrade_folds_extra_loss():
    sim, medium, radios = micro_world()
    manager = manager_with(
        sim, medium,
        [FaultEpisode(DEGRADE, 1.0, 2.0, severity=0.5),
         FaultEpisode(DEGRADE, 1.5, 2.5, severity=0.5)],
    )
    sim.run(until=1.2)
    assert manager.link_extra_loss("a", "b") == pytest.approx(0.5)
    sim.run(until=1.8)
    assert manager.link_extra_loss("a", "b") == pytest.approx(0.75)  # folded
    sim.run(until=2.2)
    assert manager.link_extra_loss("a", "b") == pytest.approx(0.5)
    sim.run()
    assert manager.link_extra_loss("a", "b") == 0.0
    assert manager.degrade_windows == 2


def test_overlapping_link_episodes_refcount():
    sim, medium, radios = micro_world()
    manager = manager_with(
        sim, medium,
        [FaultEpisode(LINK, 1.0, 3.0, subject=("a", "b")),
         FaultEpisode(LINK, 2.0, 4.0, subject=("a", "b"))],
    )
    sim.run(until=3.5)
    assert manager.link_extra_loss("a", "b") is None  # second still holds it
    sim.run()
    assert manager.link_extra_loss("a", "b") == 0.0


# ==================================================================== wiring
def test_fault_node_ids_include_producer():
    names = {
        "downloaders": ["producer", "m1"],
        "stationary": ["repo-0"],
        "pure": ["p0"],
        "intermediate": ["i0"],
    }
    assert fault_node_ids(names) == ["producer", "m1", "repo-0", "p0", "i0"]


def test_build_fault_manager_none_returns_none():
    config = ExperimentConfig.tiny()
    assert build_fault_manager(config, None, None, {}) is None


def test_fault_override_prefix_merges_params():
    config = ExperimentConfig.tiny().with_overrides(
        faults="link_flap", fault_mean_down=3.5, fault_pair_fraction=0.2
    )
    assert config.faults == "link_flap"
    assert config.fault_params == {"mean_down": 3.5, "pair_fraction": 0.2}
    again = config.with_overrides(fault_mean_down=7.0)
    assert again.fault_params == {"mean_down": 7.0, "pair_fraction": 0.2}
    # The literal field name still replaces wholesale.
    replaced = config.with_overrides(fault_params={"mean_up": 1.0})
    assert replaced.fault_params == {"mean_up": 1.0}


def test_config_roundtrips_fault_fields():
    config = ExperimentConfig.tiny().with_overrides(
        faults="partition", fault_at=5.0, invariants=True
    )
    rebuilt = ExperimentConfig.from_dict(config.as_dict())
    assert rebuilt == config


def test_fault_specs_registered():
    faults_spec = get_experiment("faults")
    assert faults_spec.overrides["faults"] == "link_flap"
    assert faults_spec.overrides["invariants"] is True
    partition_spec = get_experiment("partition")
    assert partition_spec.overrides["faults"] == "partition"


# ================================================================ invariants
def test_invariant_monitor_disabled_by_default():
    sim, medium, radios = micro_world()
    config = ExperimentConfig.tiny()
    assert build_invariant_monitor(config, sim, medium) is None


def test_invariant_monitor_flags_delivery_to_detached_node():
    sim, medium, radios = micro_world()
    monitor = InvariantMonitor(sim, medium)
    monitor.install()
    airtime = radios["a"].broadcast("payload", 2000, kind="t")
    # Detach the receiver while the frame is on the air: the medium's own
    # guard drops the delivery, so no violation is recorded...
    sim.schedule_call(airtime / 2, medium.detach, "b")
    sim.run()
    assert monitor.violations == []
    # ...but a delivery that somehow reached a detached node would be.
    monitor._on_deliver("b", None)
    assert any("detached" in violation for violation in monitor.violations)


def test_invariant_monitor_flags_delivery_to_stalled_node():
    sim, medium, radios = micro_world()
    manager = manager_with(sim, medium, [FaultEpisode(STALL, 0.0, 50.0, subject="b")])
    monitor = InvariantMonitor(sim, medium, faults=manager)
    sim.run(until=1.0)
    monitor._on_deliver("b", None)
    assert any("stalled" in violation for violation in monitor.violations)
    sim.run()


def test_invariant_violation_error_summarizes():
    error = InvariantViolationError([f"violation {i}" for i in range(8)])
    assert error.violations == [f"violation {i}" for i in range(8)]
    assert "8 invariant violation(s)" in str(error)
    assert "+3 more" in str(error)
