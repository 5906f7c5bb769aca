"""Churn must not break any byte-identity contract the simulator guarantees.

Three families of invariants, now under a *changing* population:

* spatial-backend equivalence — the grid index and the brute-force oracle
  produce identical results under sustained churn, across propagation
  models;
* execution-mode equivalence — serial==parallel sweeps stay byte-identical
  when nodes arrive, drain and die mid-run;
* liveness under fault injection — abrupt kills mid-ARQ-retry and
  mid-batched-delivery complete without raising, without orphaned events
  mutating dead state, and with the drop observable in ``orphaned_sends``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentConfig, run_experiment, run_trials
from repro.experiments.runner import run_protocol_trial
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio, WirelessMedium

from oracles import MEDIUM, oracle

CHURN_CONFIG = dict(
    churn="poisson",
    churn_mean_session=1.0,
    churn_mean_offline=1.0,
    churn_abrupt_fraction=0.5,
    num_files=2,
    file_size=40_000,
    max_duration=45.0,
)

NEIGHBOR_INDICES = ("grid", "brute")


def run_fingerprint(config, seed=42, protocol="dapes"):
    result = run_protocol_trial(protocol, config, seed)
    return result.to_dict()


# ===================================================== spatial backends
@pytest.mark.parametrize("propagation", ["unit_disk", "log_distance"])
def test_neighbor_indices_identical_under_sustained_churn(propagation):
    base = ExperimentConfig.tiny().with_overrides(propagation=propagation, **CHURN_CONFIG)
    reference = run_fingerprint(base)
    assert reference["extras"]["churn.abrupt_kills"] > 0  # churn actually ran
    with oracle(index="brute"):
        candidate = run_fingerprint(base)
    assert candidate == reference, "brute diverged from grid under churn"


@pytest.mark.parametrize("protocol", ["bithoc", "ekta"])
def test_baselines_deterministic_under_churn(protocol):
    config = ExperimentConfig.tiny().with_overrides(**CHURN_CONFIG)
    assert run_fingerprint(config, protocol=protocol) == run_fingerprint(
        config, protocol=protocol
    )


# ==================================================== serial vs parallel
def test_churn_spec_serial_parallel_identical():
    config = ExperimentConfig.tiny().with_overrides(
        trials=2, churn_abrupt_fraction=0.5, max_duration=60.0
    )
    axes = {"mean_session": (5.0,)}
    serial = run_experiment("churn", config, axes=axes, workers=1)
    parallel = run_experiment("churn", config, axes=axes, workers=2)
    assert serial == parallel
    for point_s, point_p in zip(serial.points, parallel.points):
        assert point_s.trial_results == point_p.trial_results
    assert serial.points[0].extras["churn.arrivals"] >= 0


def test_flashcrowd_spec_runs_end_to_end():
    config = ExperimentConfig.tiny().with_overrides(trials=1, max_duration=120.0)
    result = run_experiment("flashcrowd", config, axes={"bursts": (2,)})
    point = result.points[0]
    assert point.completion_ratio > 0
    assert point.extras["churn.arrivals"] > 0


def test_churn_trials_parallel_matches_serial():
    config = ExperimentConfig.tiny().with_overrides(trials=2, **CHURN_CONFIG)
    serial = run_trials("dapes", config, "DAPES", workers=1)
    parallel = run_trials("dapes", config, "DAPES", workers=2)
    assert serial == parallel


# =============================================== kill-mid-transfer faults
def micro_world(delivery="batched", loss_rate=0.0, seed=3):
    sim = Simulator(seed=seed)
    positions = {"a": (0.0, 0.0), "b": (30.0, 0.0), "x": (15.0, 20.0)}
    medium = MEDIUM[delivery](
        sim, StaticPlacement(positions), ChannelConfig(wifi_range=60.0, loss_rate=loss_rate)
    )
    radios = {node: Radio(sim, medium, node) for node in positions}
    return sim, medium, radios


def test_kill_mid_arq_retry_is_pruned_and_silent():
    """Detaching a sender with live ARQ state must cancel the retries."""
    sim, medium, radios = micro_world(loss_rate=0.99)
    radios["a"].unicast("b", "payload", 1000, kind="t")
    # Let the first transmission complete and the ARQ retry get scheduled.
    sim.run(until=0.002)
    assert medium.unicast_retry_backlog == 1
    medium.detach("a")
    assert medium.unicast_retry_backlog == 0  # state pruned at detach
    sim.run()  # the already-scheduled retry callback must no-op, not raise
    assert medium.unicast_retry_backlog == 0


def test_kill_destination_mid_arq_retry():
    sim, medium, radios = micro_world(loss_rate=0.99)
    radios["a"].unicast("b", "payload", 1000, kind="t")
    sim.run(until=0.002)
    assert medium.unicast_retry_backlog == 1
    medium.detach("b")
    assert medium.unicast_retry_backlog == 0
    sim.run()


@pytest.mark.parametrize("delivery", ["batched", "per_receiver"])
def test_kill_receiver_mid_delivery(delivery):
    """A receiver detached while a frame is on the air receives nothing."""
    sim, medium, radios = micro_world(delivery=delivery)
    received = []
    radios["x"].on_receive = lambda frame: received.append(frame.sender)
    airtime = radios["a"].broadcast("payload", 2000, kind="t")
    sim.schedule_call(airtime / 2, medium.detach, "x")
    sim.run()
    assert received == []


@pytest.mark.parametrize("delivery", ["batched", "per_receiver"])
def test_kill_sender_mid_delivery(delivery):
    """The sender dying mid-air must not corrupt the completion event."""
    sim, medium, radios = micro_world(delivery=delivery)
    airtime = radios["a"].broadcast("payload", 2000, kind="t")
    sim.schedule_call(airtime / 2, medium.detach, "a")
    sim.run()  # completion callback for the dead sender must no-op


def test_orphaned_send_is_counted_not_raised():
    sim, medium, radios = micro_world()
    medium.detach("a")
    assert radios["a"].broadcast("late", 500, kind="t") == 0.0
    assert medium.orphaned_sends == 1
    assert medium.neighbours_of("a") == []


def test_queued_frames_of_killed_sender_noop():
    """Frames queued behind a busy radio must no-op once the sender dies."""
    sim, medium, radios = micro_world()
    radios["a"].broadcast("first", 4000, kind="t")
    radios["a"].broadcast("queued", 4000, kind="t")  # queued behind the first
    medium.detach("a")
    sim.run()  # the deferred _begin_transmission must not raise


# =================================================== attach/detach property
@st.composite
def interleavings(draw):
    """A random attach/detach/query interleaving over a small node set."""
    nodes = [f"n{i}" for i in range(draw(st.integers(min_value=3, max_value=6)))]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["attach", "detach", "query"]),
                st.sampled_from(nodes),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return nodes, ops


@settings(max_examples=30, deadline=None)
@given(interleavings())
def test_indices_agree_under_attach_detach_interleaving(case):
    nodes, ops = case
    positions = {node: (37.0 * index % 150, 53.0 * index % 150)
                 for index, node in enumerate(nodes)}

    worlds = {}
    for index_name in NEIGHBOR_INDICES:
        sim = Simulator(seed=9)
        with oracle(index=index_name):
            medium = WirelessMedium(
                sim, StaticPlacement(dict(positions)), ChannelConfig(wifi_range=80.0)
            )
        radios = {node: Radio(sim, medium, node) for node in nodes}
        worlds[index_name] = (sim, medium, radios)

    attached = set(nodes)
    for action, node in ops:
        if action == "attach" and node not in attached:
            attached.add(node)
            for _, medium, radios in worlds.values():
                medium.attach(radios[node])
        elif action == "detach" and node in attached:
            attached.discard(node)
            for _, medium, radios in worlds.values():
                medium.detach(node)
        elif action == "query" and attached:
            target = node if node in attached else sorted(attached)[0]
            results = {
                name: world[1].neighbours_of(target)
                for name, world in worlds.items()
            }
            reference = results["grid"]
            assert set(reference) <= attached - {target}
            for name, neighbours in results.items():
                assert sorted(neighbours) == sorted(reference), (
                    f"{name} diverged after {action}s: {ops}"
                )
    for _, medium, _ in worlds.values():
        assert set(medium.node_ids) == attached


@settings(max_examples=15, deadline=None)
@given(interleavings())
def test_indices_agree_with_moving_nodes_under_churn(case):
    """Attach/detach interleaving with mobile nodes: grid snapshots and
    remembered neighbour sets must invalidate on every population change."""
    from repro.mobility import RandomDirectionMobility

    nodes, ops = case
    worlds = {}
    for index_name in NEIGHBOR_INDICES:
        sim = Simulator(seed=17)
        mobility = RandomDirectionMobility(
            width=150.0, height=150.0, min_speed=2.0, max_speed=10.0,
            rng=sim.rng("mobility"),
        )
        for node in nodes:
            mobility.add_node(node)
        with oracle(index=index_name):
            medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0))
        radios = {node: Radio(sim, medium, node) for node in nodes}
        worlds[index_name] = (sim, medium, radios)

    attached = set(nodes)
    time = 0.0
    for action, node in ops:
        time += 0.5  # advance between ops so grid snapshots go stale
        if action == "attach" and node not in attached:
            attached.add(node)
            for _, medium, radios in worlds.values():
                medium.attach(radios[node])
        elif action == "detach" and node in attached:
            attached.discard(node)
            for _, medium, radios in worlds.values():
                medium.detach(node)
        elif action == "query" and attached:
            target = node if node in attached else sorted(attached)[0]
            results = {
                name: world[1].neighbours_of(target, time)
                for name, world in worlds.items()
            }
            reference = results["grid"]
            assert set(reference) <= attached - {target}
            for name, neighbours in results.items():
                assert sorted(neighbours) == sorted(reference), (
                    f"{name} diverged at t={time}: {ops}"
                )


# ===================================================== zero-churn identity
def test_zero_churn_run_is_byte_identical_to_prechurn_shape():
    """A churn="none" run must not even mention churn in its output."""
    config = ExperimentConfig.tiny()
    result = run_protocol_trial("dapes", config, 42)
    payload = result.to_dict()
    assert payload["extras"] == {}
    flat = str(payload)
    assert "churn" not in flat
