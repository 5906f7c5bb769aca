"""Batched vs per-receiver frame delivery must be byte-identical.

The wireless medium's batched delivery (one completion event per
transmission) replaces the seed's per-receiver scheduling, which survives as
the ``PerReceiverMedium`` oracle in ``oracles.py``.  These tests pin the
equivalence at every level: micro-worlds exercising each MAC mechanism,
whole registered experiments (DAPES and the IP baselines), and the
serial-vs-parallel sweep path.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.sweep import run_experiment
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio

from oracles import MEDIUM, oracle


def build_world(positions, delivery, wifi_range=60.0, loss_rate=0.0, seed=1, ranges=None):
    sim = Simulator(seed=seed)
    mobility = StaticPlacement(positions)
    medium = MEDIUM[delivery](
        sim, mobility, ChannelConfig(wifi_range=wifi_range, loss_rate=loss_rate)
    )
    radios = {
        node: Radio(sim, medium, node, wifi_range=(ranges or {}).get(node))
        for node in positions
    }
    return sim, medium, radios


def world_fingerprint(sim, medium, radios, received):
    """Every observable of a finished micro-run, for cross-mode comparison."""
    return {
        "events": sim.events_processed,
        "now": sim.now,
        "stats": medium.stats.as_dict(),
        "retry_backlog": medium.unicast_retry_backlog,
        "received": received,
        "radio_stats": {
            node: (
                radio.stats.frames_sent,
                radio.stats.frames_received,
                radio.stats.frames_overheard,
                radio.stats.frames_lost,
                radio.stats.frames_collided,
            )
            for node, radio in radios.items()
        },
    }


def run_edge_case(delivery, case):
    """One scripted micro-scenario; returns its full fingerprint."""
    if case == "collision":
        # Hidden terminals: a and b cannot hear each other, both reach x.
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (100, 0), "x": (55, 0)}, delivery, wifi_range=60
        )
        received = []
        radios["x"].on_receive = lambda frame: received.append(frame.sender)
        radios["a"].broadcast("from-a", 1000, kind="t")
        radios["b"].broadcast("from-b", 1000, kind="t")
        sim.run()
    elif case == "three-way":
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (110, 0), "c": (55, 95), "x": (55, 30)},
            delivery, wifi_range=65,
        )
        received = []
        radios["x"].on_receive = lambda frame: received.append(frame.sender)
        for node in ("a", "b", "c"):
            radios[node].broadcast(f"from-{node}", 1000, kind="t")
        sim.run()
    elif case == "half-duplex":
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (50, 0)}, delivery, wifi_range=60,
            ranges={"a": 100.0, "b": 5.0},
        )
        received = []
        radios["b"].on_receive = lambda frame: received.append(frame.sender)
        radios["b"].broadcast("long", 5000, kind="t")
        sim.schedule(0.0001, radios["a"].broadcast, "towards-b", 1000, "t")
        sim.run()
    elif case == "csma":
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (30, 0), "c": (15, 0)}, delivery
        )
        received = []
        radios["c"].on_receive = lambda frame: received.append(frame.sender)
        radios["a"].broadcast("first", 2000, kind="t")
        sim.schedule(0.0001, radios["b"].broadcast, "second", 2000, "t")
        sim.run()
    elif case == "arq":
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (10, 0)}, delivery, loss_rate=0.4, seed=11
        )
        received = []
        radios["b"].on_receive = lambda frame: received.append(frame.payload)
        for index in range(20):
            radios["a"].unicast("b", index, 200, kind="t")
        sim.run()
    elif case == "detach-mid-flight":
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (10, 0), "c": (20, 0)}, delivery
        )
        received = []
        radios["b"].on_receive = lambda frame: received.append(("b", frame.payload))
        radios["c"].on_receive = lambda frame: received.append(("c", frame.payload))
        radios["a"].broadcast("x", 2000, kind="t")
        sim.schedule(0.0005, medium.detach, "b")  # mid-airtime
        sim.run()
    elif case == "queued-serialized":
        sim, medium, radios = build_world({"a": (0, 0), "b": (10, 0)}, delivery)
        received = []
        radios["b"].on_receive = lambda frame: received.append(frame.payload)
        for index in range(5):
            radios["a"].broadcast(index, 1000, kind="t")
        sim.run()
    else:  # pragma: no cover - test bug
        raise ValueError(case)
    return world_fingerprint(sim, medium, radios, received)


EDGE_CASES = (
    "collision",
    "three-way",
    "half-duplex",
    "csma",
    "arq",
    "detach-mid-flight",
    "queued-serialized",
)


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_case_matrix_batched_equals_per_receiver(case):
    assert run_edge_case("batched", case) == run_edge_case("per_receiver", case)


def test_stop_mid_batch_matches_per_receiver_and_resumes():
    """sim.stop() from a delivery callback halts between receivers in both modes.

    The stopping callback also schedules a zero-delay follow-up event: on
    resume, the remaining receptions must still fire *before* it (their
    per-receiver events held older sequence numbers in the seed scheduler).
    """
    results = {}
    for delivery in ("batched", "per_receiver"):
        sim, medium, radios = build_world(
            {"a": (0, 0), "b": (10, 0), "c": (20, 0)}, delivery
        )
        received = []

        def stop_on_first(frame, sim=sim, received=received):
            received.append("b")
            sim.schedule_call(0.0, received.append, "followup")
            sim.stop()

        radios["b"].on_receive = stop_on_first
        radios["c"].on_receive = lambda frame: received.append("c")
        radios["a"].broadcast("x", 1000, kind="t")
        sim.run()
        mid = (sim.events_processed, list(received), medium.stats.deliveries)
        sim.run()  # resume: the remaining reception must still be delivered
        results[delivery] = (mid, sim.events_processed, received, medium.stats.deliveries)
    assert results["batched"] == results["per_receiver"]
    # The resumed run delivers the second receiver before the follow-up
    # event the stopping callback scheduled.
    assert results["batched"][2] == ["b", "c", "followup"]


# ------------------------------------------------------- experiment level
def _spec_fingerprint(name, delivery, workers=1):
    config = ExperimentConfig.tiny().with_overrides(max_duration=60.0)
    axes = {"wifi_range": (60.0,)} if name == "fig9a" else None
    with oracle(delivery=delivery):
        return run_experiment(name, config, axes=axes, workers=workers).to_json()


@pytest.mark.parametrize("name", ["fig9a", "fig10"])
def test_registered_specs_byte_identical_across_delivery_modes(name):
    assert _spec_fingerprint(name, "batched") == _spec_fingerprint(name, "per_receiver")


def test_batched_delivery_serial_equals_parallel():
    serial = _spec_fingerprint("fig9a", "batched", workers=1)
    parallel = _spec_fingerprint("fig9a", "batched", workers=2)
    assert serial == parallel
