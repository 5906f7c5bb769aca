"""Faults must not break any byte-identity contract the simulator guarantees.

Four families of invariants, now under an *unreliable* network:

* spatial-backend equivalence — the grid index and the brute-force oracle
  produce identical results under sustained link flapping;
* execution-mode equivalence — serial==parallel sweeps stay byte-identical
  while links drop, partitions split and heal, and nodes stall mid-transfer;
* recovery — a healed partition re-knits the swarm (time-to-recover
  extras), retransmission survives sustained loss, and churn kills compose
  with stalls without a frame ever reaching a detached or stalled node;
* zero-fault identity — ``faults="none"`` must not even mention faults in
  its output, and the end-of-trial invariant check every trial runs must
  leave the state it inspects untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import ExperimentConfig, get_builder, run_experiment, run_trials
from repro.experiments.runner import run_protocol_trial
from repro.faults import FaultEpisode, FaultManager, FaultModel, FaultPlan, LINK, STALL, check_trial
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio, WirelessMedium

from oracles import oracle

FAULT_CONFIG = dict(
    faults="link_flap",
    fault_mean_up=4.0,
    fault_mean_down=2.0,
    fault_pair_fraction=0.5,
    num_files=2,
    file_size=40_000,
    max_duration=45.0,
)


def run_fingerprint(config, seed=42, protocol="dapes"):
    result = run_protocol_trial(protocol, config, seed)
    return result.to_dict()


# ===================================================== spatial backends
@pytest.mark.parametrize("propagation", ["unit_disk", "log_distance"])
def test_neighbor_indices_identical_under_link_flapping(propagation):
    base = ExperimentConfig.tiny().with_overrides(propagation=propagation, **FAULT_CONFIG)
    reference = run_fingerprint(base)
    assert reference["extras"]["faults.link_blocks"] > 0  # faults actually ran
    with oracle(index="brute"):
        candidate = run_fingerprint(base)
    assert candidate == reference, "brute diverged from grid under faults"


@pytest.mark.parametrize("protocol", ["bithoc", "ekta"])
def test_baselines_deterministic_under_faults(protocol):
    config = ExperimentConfig.tiny().with_overrides(**FAULT_CONFIG)
    assert run_fingerprint(config, protocol=protocol) == run_fingerprint(
        config, protocol=protocol
    )


def test_faults_compose_with_churn_deterministically():
    config = ExperimentConfig.tiny().with_overrides(
        churn="poisson",
        churn_mean_session=5.0,
        churn_mean_offline=2.0,
        churn_abrupt_fraction=0.5,
        **FAULT_CONFIG,
    )
    first = run_fingerprint(config)
    assert first == run_fingerprint(config)
    assert "churn.arrivals" in first["extras"]
    assert "faults.episodes" in first["extras"]


# ==================================================== serial vs parallel
def test_faults_spec_serial_parallel_identical():
    config = ExperimentConfig.tiny().with_overrides(
        trials=2, num_files=2, file_size=40_000, max_duration=45.0
    )
    axes = {"mean_down": (2.0,)}
    serial = run_experiment("faults", config, axes=axes, workers=1)
    parallel = run_experiment("faults", config, axes=axes, workers=2)
    assert serial == parallel
    for point_s, point_p in zip(serial.points, parallel.points):
        assert point_s.trial_results == point_p.trial_results
    assert serial.points[0].extras["faults.episodes"] > 0


def test_fault_trials_parallel_matches_serial():
    config = ExperimentConfig.tiny().with_overrides(trials=2, **FAULT_CONFIG)
    serial = run_trials("dapes", config, "DAPES", workers=1)
    parallel = run_trials("dapes", config, "DAPES", workers=2)
    assert serial == parallel


# ============================================================== recovery
def test_partition_heal_rediscovery_and_recovery_metrics():
    """A mid-run partition heals and the swarm re-knits: downloads complete
    and the recovery watch records a finite time-to-recover."""
    config = ExperimentConfig.tiny().with_overrides(
        faults="partition",
        fault_at=1.0,
        fault_duration=5.0,
        num_files=2,
        file_size=40_000,
        max_duration=120.0,
    )
    result = run_protocol_trial("dapes", config, 7)
    assert result.extras["faults.partitions"] == 1.0
    assert result.extras["recovery.heals"] >= 1.0
    assert result.extras["recovery.recovered_partitions"] == 1.0
    assert result.extras["recovery.time_to_recover_mean"] >= 0.0
    assert result.extras["faults.active_time"] == pytest.approx(5.0)
    assert result.incomplete_nodes == []


def test_partition_spec_runs_end_to_end():
    config = ExperimentConfig.tiny().with_overrides(
        trials=1, num_files=2, file_size=40_000, max_duration=120.0,
    )
    result = run_experiment("partition", config, axes={"duration": (6.0,)})
    point = result.points[0]
    assert point.completion_ratio > 0
    # The spec's own fault_at=30.0 may land after a tiny run completes, so
    # assert the planned episode, not that it began before the sim stopped.
    assert point.extras["faults.episodes"] == 1.0


def test_retransmission_survives_sustained_degrade():
    """Interest retransmission with jittered backoff pushes a download
    through a channel that spends most of its time badly degraded."""
    config = ExperimentConfig.tiny().with_overrides(
        faults="degrade",
        fault_period=1.0,
        fault_duty=0.5,
        fault_severity=0.6,
        dapes_retransmit_jitter=0.3,
        num_files=2,
        file_size=40_000,
        max_duration=120.0,
    )
    result = run_protocol_trial("dapes", config, 11)
    assert result.extras["faults.degrade_windows"] > 0
    assert result.extras["faults.active_time"] > 0
    assert result.incomplete_nodes == []  # everyone finished despite the windows


def test_jitter_changes_nothing_when_zero():
    base = ExperimentConfig.tiny()
    jittered = base.with_overrides(dapes_retransmit_jitter=0.0)
    assert run_fingerprint(base) == run_fingerprint(jittered)


# ====================================================== stall/kill chaos
def chaos_world(seed=3):
    sim = Simulator(seed=seed)
    positions = {"a": (0.0, 0.0), "b": (30.0, 0.0), "c": (55.0, 0.0), "d": (80.0, 0.0)}
    medium = WirelessMedium(
        sim,
        StaticPlacement(positions),
        ChannelConfig(wifi_range=40.0),
    )
    radios = {node: Radio(sim, medium, node) for node in positions}
    return sim, medium, radios


class ScriptedFaults(FaultModel):
    name = "scripted-chaos"

    def __init__(self, episodes):
        super().__init__({})
        self.episodes = tuple(episodes)

    def plan(self, node_ids, horizon, stream):
        return FaultPlan(episodes=self.episodes)


# Who hears whom in chaos_world (40 m range on a 0/30/55/80 m chain).
CHAOS_NEIGHBOURS = {"a": ("b",), "b": ("a", "c"), "c": ("b", "d"), "d": ("c",)}


@st.composite
def chaos_schedules(draw):
    """Interleaved stalls, link flaps, kills and traffic over a small world.

    Every stall comes with frames sent by a neighbour of the stalled node
    inside its stall window, so the stall-delivery path is exercised.
    """
    nodes = ["a", "b", "c", "d"]
    episodes, sends = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(st.floats(min_value=0.0, max_value=8.0))
        length = draw(st.floats(min_value=0.1, max_value=4.0))
        if draw(st.booleans()):
            stalled = draw(st.sampled_from(nodes))
            episodes.append(FaultEpisode(STALL, start, start + length, subject=stalled))
            sends += draw(st.lists(
                st.tuples(st.floats(min_value=start, max_value=start + length),
                          st.sampled_from(CHAOS_NEIGHBOURS[stalled])),
                min_size=1, max_size=3,
            ))
        else:
            pair = draw(st.sampled_from([("a", "b"), ("b", "c"), ("c", "d")]))
            episodes.append(FaultEpisode(LINK, start, start + length, subject=pair))
    kills = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=10.0), st.sampled_from(nodes)),
        max_size=2, unique_by=lambda kill: kill[1],
    ))
    sends += draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=10.0), st.sampled_from(nodes)),
        min_size=1, max_size=6,
    ))
    return episodes, kills, sends


# A fault-free schedule whose frames reach someone (the channel's 10 % loss
# at seed 3 spares some of them): the spy must see those deliveries.
DELIVERING = ([], [], [(t, "b") for t in (1.0, 2.0, 3.0)])


@settings(max_examples=40, deadline=None)
@given(chaos_schedules())
# One schedule that always puts frames on the air towards a stalled node.
@example(([FaultEpisode(STALL, 0.0, 5.0, subject="b")], [], [(t, "a") for t in (1.0, 1.5, 2.0, 2.5)]))
@example(DELIVERING)
def test_stall_kill_interleavings_hold_invariants(case):
    """Any interleaving of stalls, link flaps, abrupt kills and traffic must
    run to completion without a frame reaching a detached or stalled node."""
    episodes, kills, sends = case
    sim, medium, radios = chaos_world()
    manager = FaultManager(sim, medium, ScriptedFaults(episodes),
                           list(radios), horizon=20.0)
    unsafe = []
    delivered = []
    for node, radio in radios.items():
        def deliver(frame, node=node, original=radio.deliver):
            delivered.append(node)
            if node not in medium.node_ids or manager.sender_stalled(node):
                unsafe.append((node, sim.now))
            original(frame)

        radio.deliver = deliver
    manager.activate()
    for when, node in kills:
        sim.schedule_call(when, medium.detach, node)
    killed = {node for _, node in kills}
    for index, (when, node) in enumerate(sends):
        sim.schedule_call(when, radios[node].broadcast, f"payload-{index}", 500, "t")
    sim.run()
    assert unsafe == []
    # The spy is the only way in: every delivery the medium counted reached
    # a node through Radio.deliver (a bypass would leave ``unsafe`` empty
    # while checking nothing).
    assert len(delivered) == medium.stats.deliveries
    if case == DELIVERING:
        assert delivered
    # Whatever was suppressed or replayed is accounted, never lost silently.
    metrics = manager.metrics()
    assert metrics["faults.replayed_frames"] <= metrics["faults.stalled_sends"]
    assert set(medium.node_ids) == set(radios) - killed


# ===================================================== zero-fault identity
def test_zero_fault_run_is_byte_identical_to_prefault_shape():
    """A faults="none" run must not even mention faults in its output."""
    config = ExperimentConfig.tiny()
    result = run_protocol_trial("dapes", config, 42)
    payload = result.to_dict()
    assert payload["extras"] == {}
    flat = str(payload)
    assert "faults." not in flat
    assert "recovery." not in flat


def pit_state(scenario):
    holders = [*scenario.nodes.values(), *scenario.pure_forwarders.values()]
    return {
        holder.node_id: (
            holder.forwarder.stats.pit_expirations,
            [(entry.name, entry.expiry, set(entry.in_faces), set(entry.out_faces), set(entry.nonces))
             for entry in holder.forwarder.pit.entries()],
        )
        for holder in holders
    }


def test_trial_check_is_pure_observation():
    """The check reads the PITs it inspects and changes none of them: an
    entry expiring exactly now is not overdue, and it is neither flagged
    nor dropped."""
    scenario = get_builder("dapes").build(ExperimentConfig.tiny(), 42)
    scenario.start()
    scenario.sim.run(until=1.0)  # mid-exchange: PITs hold entries
    [entry, *_] = [
        entry
        for node in scenario.nodes.values()
        for entry in node.forwarder.pit.entries()
    ]
    entry.expiry = scenario.sim.now
    before = pit_state(scenario)
    check_trial(scenario)
    assert pit_state(scenario) == before


@pytest.mark.parametrize("protocol", ["dapes", "bithoc", "ekta"])
def test_invariants_pass_on_clean_runs(protocol):
    result = run_protocol_trial(protocol, ExperimentConfig.tiny(), 42)
    assert result.completion_ratio > 0


def test_hardening_config_fields_validated():
    with pytest.raises(ValueError, match="retransmit_jitter"):
        ExperimentConfig.tiny().with_overrides(dapes_retransmit_jitter=1.5)
