"""The churn subsystem: models, registry, lifecycle manager, scenario wiring.

Covers the deterministic model contract (plans are pure functions of the
per-node named streams), the ``register_churn`` registry, the manager's
ONLINE/DRAINING/OFFLINE state machine (graceful drain vs abrupt kill), the
``churn_`` config-override prefix, and — critically — the zero-churn path:
``churn="none"`` must build no manager, schedule no events and leave every
result byte-identical to a pre-churn run.
"""

from __future__ import annotations

import pytest

from repro.churn import (
    ARRIVE,
    DEPART,
    KILL,
    ChurnEvent,
    ChurnManager,
    ChurnPlan,
    FlashCrowd,
    PoissonChurn,
    TraceChurn,
    available_churn_models,
    build_churn_manager,
    build_churn_model,
    churnable_node_ids,
    validate_churn,
)
from repro.experiments import ExperimentConfig, get_builder, get_experiment
from repro.experiments.metrics import RunResult, aggregate_trials
from repro.experiments.runner import run_protocol_trial
from repro.mobility import StaticPlacement
from repro.profiling import collect_run_profile
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio, WirelessMedium


def make_stream(seed=1):
    sim = Simulator(seed=seed)
    return lambda node_id: sim.rng(f"churn.{node_id}")


# ================================================================== registry
def test_builtin_models_registered():
    assert set(available_churn_models()) >= {"none", "poisson", "flashcrowd", "trace"}


@pytest.mark.parametrize(
    "params",
    [
        {"mean_session": -1},
        {"mean_session": "fast"},
        {"abrupt_fraction": 1.5},
        {"session_distribution": "weibull"},
        {"pareto_alpha": 1.0},
    ],
)
def test_inconsistent_poisson_params_rejected(params):
    with pytest.raises(ValueError):
        validate_churn("poisson", params)


def test_flashcrowd_bursts_must_be_positive_int():
    with pytest.raises(ValueError):
        validate_churn("flashcrowd", {"bursts": 0})
    with pytest.raises(ValueError):
        validate_churn("flashcrowd", {"bursts": True})


def test_churn_event_validation():
    with pytest.raises(ValueError, match="unknown churn action"):
        ChurnEvent(time=1.0, node_id="a", action="vanish")
    with pytest.raises(ValueError, match="non-negative"):
        ChurnEvent(time=-1.0, node_id="a", action=ARRIVE)


def test_none_model_plans_nothing():
    plan = build_churn_model("none").plan(["a", "b"], 100.0, make_stream())
    assert plan.empty


# ==================================================================== models
def test_poisson_plan_is_deterministic_and_sorted():
    model = PoissonChurn({"mean_session": 20.0, "mean_offline": 10.0})
    first = model.plan(["a", "b", "c"], 200.0, make_stream(7))
    second = model.plan(["a", "b", "c"], 200.0, make_stream(7))
    assert first == second
    times = [event.time for event in first.events]
    assert times == sorted(times)
    assert not first.initially_offline


def test_poisson_per_node_streams_are_independent():
    """Dropping a node from the set must not perturb the others' schedules."""
    model = PoissonChurn({"mean_session": 20.0, "mean_offline": 10.0})
    both = model.plan(["a", "b"], 200.0, make_stream(7))
    only_a = model.plan(["a"], 200.0, make_stream(7))
    a_events = tuple(e for e in both.events if e.node_id == "a")
    assert a_events == only_a.events


def test_poisson_alternates_departures_and_arrivals_per_node():
    model = PoissonChurn({"mean_session": 15.0, "mean_offline": 15.0, "abrupt_fraction": 0.0})
    plan = model.plan(["a"], 500.0, make_stream(3))
    actions = [event.action for event in plan.events]
    assert actions  # long horizon, short sessions: events must exist
    # First event ends the initial session; then strict alternation.
    assert actions[0] == DEPART
    for previous, current in zip(actions, actions[1:]):
        assert {previous, current} == {DEPART, ARRIVE}


def test_poisson_abrupt_fraction_extremes():
    kills = PoissonChurn({"mean_session": 10.0, "abrupt_fraction": 1.0}).plan(
        ["a", "b"], 300.0, make_stream(5)
    )
    assert all(e.action == KILL for e in kills.events if e.action != ARRIVE)
    graceful = PoissonChurn({"mean_session": 10.0, "abrupt_fraction": 0.0}).plan(
        ["a", "b"], 300.0, make_stream(5)
    )
    assert all(e.action != KILL for e in graceful.events)


@pytest.mark.parametrize("distribution", ["exponential", "lognormal", "pareto"])
def test_poisson_session_distributions(distribution):
    model = PoissonChurn({"mean_session": 30.0, "session_distribution": distribution})
    plan = model.plan(["a", "b", "c", "d"], 400.0, make_stream(11))
    assert plan.events
    assert all(event.time < 400.0 for event in plan.events)


def test_flashcrowd_everyone_starts_offline_and_arrives_in_waves():
    model = FlashCrowd({"first_burst": 10.0, "bursts": 2, "spacing": 50.0, "jitter": 0.0})
    nodes = ["a", "b", "c", "d"]
    plan = model.plan(nodes, 200.0, make_stream(2))
    assert plan.initially_offline == tuple(nodes)
    arrivals = {e.node_id: e.time for e in plan.events if e.action == ARRIVE}
    assert set(arrivals) == set(nodes)
    # Round-robin waves with zero jitter land exactly on the wave times.
    assert arrivals["a"] == 10.0 and arrivals["c"] == 10.0
    assert arrivals["b"] == 60.0 and arrivals["d"] == 60.0


def test_flashcrowd_sessions_end_when_mean_session_set():
    model = FlashCrowd(
        {"first_burst": 1.0, "bursts": 1, "jitter": 0.0, "mean_session": 5.0,
         "abrupt_fraction": 0.0}
    )
    plan = model.plan(["a", "b"], 1000.0, make_stream(4))
    assert sum(1 for e in plan.events if e.action == DEPART) == 2


def test_trace_replays_schedule_literally():
    model = TraceChurn(
        {
            "events": [[5.0, "b", KILL], [2.0, "a", DEPART], [500.0, "a", ARRIVE]],
            "initially_offline": ["c"],
        }
    )
    plan = model.plan(["a", "b", "c"], 100.0, make_stream())
    # Beyond-horizon events are dropped; the rest sorted by time.
    assert plan.initially_offline == ("c",)
    assert [(e.time, e.node_id, e.action) for e in plan.events] == [
        (2.0, "a", DEPART),
        (5.0, "b", KILL),
    ]


def test_trace_rejects_unknown_nodes_at_plan_time():
    ghost_event = TraceChurn({"events": [[9.0, "ghost", KILL]]})
    with pytest.raises(ValueError, match="unknown node.*ghost|ghost.*unknown"):
        ghost_event.plan(["a", "b"], 100.0, make_stream())
    ghost_offline = TraceChurn({"initially_offline": ["ghost"]})
    with pytest.raises(ValueError, match="ghost"):
        ghost_offline.plan(["a", "b"], 100.0, make_stream())


def test_trace_validation_rejects_malformed_events():
    for bad in (
        {"events": [[1.0, "a"]]},
        {"events": [[-1.0, "a", KILL]]},
        {"events": [[1.0, "a", "explode"]]},
        {"initially_offline": [7]},
    ):
        with pytest.raises(ValueError):
            validate_churn("trace", bad)


# =================================================================== manager
def micro_world(node_ids, seed=1):
    sim = Simulator(seed=seed)
    positions = {node_id: (10.0 * index, 0.0) for index, node_id in enumerate(node_ids)}
    medium = WirelessMedium(sim, StaticPlacement(positions), ChannelConfig(wifi_range=60.0))
    radios = {node_id: Radio(sim, medium, node_id) for node_id in node_ids}
    return sim, medium, radios


def manager_with_trace(sim, medium, radios, events, initially_offline=(), drain_delay=0.25):
    model = TraceChurn({"events": events, "initially_offline": list(initially_offline)})
    manager = ChurnManager(sim, medium, model, list(radios), horizon=1000.0,
                           drain_delay=drain_delay)
    return manager


def test_manager_graceful_departure_drains_then_detaches():
    sim, medium, radios = micro_world(["a", "b"])
    calls = []
    manager = manager_with_trace(sim, medium, radios, [[10.0, "a", DEPART]])
    manager.register("a", radios["a"], stop=lambda: calls.append(("stop", sim.now)))
    manager.register("b", radios["b"])
    manager.activate()
    sim.run(until=9.0)
    assert "a" in medium.node_ids and manager.online("a")
    sim.run(until=10.1)
    # Stopped (no new work) but still attached for the drain window.
    assert calls == [("stop", 10.0)]
    assert "a" in medium.node_ids and not manager.online("a")
    sim.run(until=11.0)
    assert "a" not in medium.node_ids
    assert manager.departures == 1 and manager.abrupt_kills == 0


def test_manager_abrupt_kill_detaches_instantly():
    sim, medium, radios = micro_world(["a", "b"])
    calls = []
    manager = manager_with_trace(sim, medium, radios, [[10.0, "a", KILL]])
    manager.register("a", radios["a"], stop=lambda: calls.append("stop"),
                     kill=lambda: calls.append("kill"))
    manager.register("b", radios["b"])
    manager.activate()
    sim.run(until=10.1)
    assert calls == ["kill"]  # kill callback wins over stop
    assert "a" not in medium.node_ids
    assert manager.abrupt_kills == 1 and manager.departures == 0


def test_manager_kill_falls_back_to_stop():
    sim, medium, radios = micro_world(["a", "b"])
    calls = []
    manager = manager_with_trace(sim, medium, radios, [[10.0, "a", KILL]])
    manager.register("a", radios["a"], stop=lambda: calls.append("stop"))
    manager.activate()
    sim.run(until=11.0)
    assert calls == ["stop"]


def test_manager_arrival_attaches_and_starts():
    sim, medium, radios = micro_world(["a", "b"])
    calls = []
    manager = manager_with_trace(
        sim, medium, radios, [[10.0, "a", ARRIVE]], initially_offline=["a"]
    )
    manager.register("a", radios["a"], start=lambda: calls.append(("start", sim.now)))
    manager.activate()
    assert "a" not in medium.node_ids and not manager.online("a")
    sim.run(until=10.1)
    assert calls == [("start", 10.0)]
    assert "a" in medium.node_ids and manager.online("a")
    assert manager.arrivals == 1


def test_manager_kill_during_drain_supersedes_it():
    sim, medium, radios = micro_world(["a", "b"])
    manager = manager_with_trace(
        sim, medium, radios, [[10.0, "a", DEPART], [10.1, "a", KILL]], drain_delay=5.0
    )
    manager.register("a", radios["a"])
    manager.activate()
    sim.run(until=20.0)
    # The kill landed mid-drain; the drain completion must not double-detach.
    assert manager.departures == 1 and manager.abrupt_kills == 1
    assert "a" not in medium.node_ids


def test_manager_redundant_events_are_counted_not_raised():
    sim, medium, radios = micro_world(["a", "b"])
    manager = manager_with_trace(
        sim, medium, radios,
        [[10.0, "a", DEPART], [11.0, "a", DEPART], [12.0, "a", KILL],
         [13.0, "b", ARRIVE]],
        drain_delay=5.0,
    )
    manager.register("a", radios["a"])
    manager.register("b", radios["b"])
    manager.activate()
    sim.run(until=20.0)
    # Second depart (draining) and the arrive-while-online are redundant; the
    # kill supersedes the drain and still counts.
    assert manager.redundant_events == 2
    assert manager.departures == 1 and manager.abrupt_kills == 1


def test_manager_rejects_unknown_and_duplicate_registrations():
    sim, medium, radios = micro_world(["a"])
    manager = manager_with_trace(sim, medium, radios, [])
    manager.register("a", radios["a"])
    with pytest.raises(ValueError, match="already registered"):
        manager.register("a", radios["a"])
    with pytest.raises(ValueError, match="churnable set"):
        manager.register("z", radios["a"])


def test_manager_activate_is_idempotent():
    sim, medium, radios = micro_world(["a"])
    manager = manager_with_trace(sim, medium, radios, [[10.0, "a", KILL]])
    manager.register("a", radios["a"])
    manager.activate()
    manager.activate()
    sim.run(until=20.0)
    assert manager.abrupt_kills == 1  # events were scheduled once


def test_manager_metrics_include_medium_orphans():
    sim, medium, radios = micro_world(["a", "b"])
    manager = manager_with_trace(sim, medium, radios, [[1.0, "a", KILL]])
    manager.register("a", radios["a"])
    manager.activate()
    sim.run(until=2.0)
    radios["a"].broadcast("late", 100, kind="t")  # orphaned: radio detached
    metrics = manager.metrics()
    assert metrics["churn.abrupt_kills"] == 1
    assert metrics["churn.orphaned_sends"] == 1


# =========================================================== config plumbing
def test_build_churn_manager_returns_none_for_zero_churn():
    sim, medium, _ = micro_world(["a"])
    config = ExperimentConfig.tiny()
    assert config.churn == "none"
    names = {"downloaders": ["a"], "stationary": [], "pure": [], "intermediate": []}
    assert build_churn_manager(config, sim, medium, names) is None


def test_build_churn_manager_pops_drain_delay_and_validates():
    sim, medium, _ = micro_world(["a"])
    names = {"downloaders": ["p", "a"], "stationary": [], "pure": [], "intermediate": []}
    config = ExperimentConfig.tiny().with_overrides(
        churn="poisson", churn_drain_delay=1.5, churn_mean_session=10.0
    )
    manager = build_churn_manager(config, sim, medium, names)
    assert manager.drain_delay == 1.5
    assert manager.model.mean_session == 10.0
    assert not hasattr(manager.model, "drain_delay")  # a manager knob, not a model param
    bad = config.with_overrides(churn_drain_delay=-1)
    with pytest.raises(ValueError, match="drain_delay"):
        build_churn_manager(bad, sim, medium, names)


def test_churnable_set_protects_the_producer():
    names = {
        "downloaders": ["mobile-0", "mobile-1"],
        "stationary": ["repo-0"],
        "pure": ["fwd-0"],
        "intermediate": ["relay-0"],
    }
    churnable = churnable_node_ids(names)
    assert "mobile-0" not in churnable
    assert set(churnable) == {"mobile-1", "repo-0", "fwd-0", "relay-0"}


def test_churn_override_prefix_merges_params():
    config = ExperimentConfig.tiny().with_overrides(
        churn="poisson", churn_mean_session=30.0
    )
    config = config.with_overrides(churn_mean_offline=5.0)
    assert config.churn == "poisson"
    assert config.churn_params == {"mean_session": 30.0, "mean_offline": 5.0}
    # The literal field name replaces wholesale instead of merging.
    replaced = config.with_overrides(churn_params={"mean_session": 9.0})
    assert replaced.churn_params == {"mean_session": 9.0}


def test_config_roundtrip_carries_churn_fields():
    config = ExperimentConfig.tiny().with_overrides(churn="flashcrowd", churn_bursts=2)
    rebuilt = ExperimentConfig.from_dict(config.as_dict())
    assert rebuilt.churn == "flashcrowd"
    assert rebuilt.churn_params == {"bursts": 2}


# ========================================================== scenario wiring
def test_zero_churn_scenario_has_no_manager():
    scenario = get_builder("dapes").build(ExperimentConfig.tiny(), seed=1)
    assert scenario.churn is None


@pytest.mark.parametrize("protocol", ["dapes", "bithoc", "ekta"])
def test_churn_scenario_registers_all_churnable_nodes(protocol):
    config = ExperimentConfig.tiny().with_overrides(churn="poisson")
    scenario = get_builder(protocol).build(config, seed=1)
    manager = scenario.churn
    assert manager is not None
    assert set(manager._registrations) == set(manager.node_ids)


def test_flashcrowd_scenario_starts_with_churnable_nodes_offline():
    config = ExperimentConfig.tiny().with_overrides(churn="flashcrowd")
    scenario = get_builder("dapes").build(config, seed=1)
    scenario.start()
    # Only the protected producer remains attached at t=0.
    assert list(scenario.medium.node_ids) == [scenario.producer_id]
    scenario.sim.run(until=config.max_duration)
    assert scenario.churn.arrivals == len(scenario.churn.node_ids)


def test_abrupt_kill_mid_run_is_deterministic():
    config = ExperimentConfig.tiny().with_overrides(
        churn="poisson", churn_mean_session=1.0, churn_mean_offline=1.0,
        churn_abrupt_fraction=1.0, max_duration=60.0,
    )
    first = run_protocol_trial("dapes", config, 42)
    second = run_protocol_trial("dapes", config, 42)
    assert first.to_dict() == second.to_dict()
    assert first.extras["churn.abrupt_kills"] > 0


# ===================================================== results & profiling
def test_zero_churn_results_carry_no_churn_extras():
    result = run_protocol_trial("dapes", ExperimentConfig.tiny(), 42)
    assert result.extras == {}
    assert not any(key.startswith("churn.") for key in result.to_dict()["extras"])


def test_aggregate_sums_churn_extras_across_trials():
    trials = [
        RunResult(protocol="dapes", seed=s, download_times={"a": 1.0},
                  extras={"churn.arrivals": 2.0, "churn.abrupt_kills": 1.0})
        for s in (1, 2)
    ]
    point = aggregate_trials("L", {}, trials)
    assert point.extras["churn.arrivals"] == 4.0
    assert point.extras["churn.abrupt_kills"] == 2.0
    zero = aggregate_trials("L", {}, [RunResult(protocol="dapes", seed=1,
                                                download_times={"a": 1.0})])
    assert not any(key.startswith("churn.") for key in zero.extras)


def test_profile_gains_churn_counters_only_with_manager():
    sim, medium, radios = micro_world(["a", "b"])
    baseline = collect_run_profile(sim, medium, 0.0)
    assert not any(key.startswith("churn.") for key in baseline)
    assert "wireless.orphaned_sends" not in baseline
    manager = manager_with_trace(sim, medium, radios, [[1.0, "a", KILL]])
    manager.register("a", radios["a"])
    manager.activate()
    sim.run(until=2.0)
    profile = collect_run_profile(sim, medium, 0.0, churn=manager)
    assert profile["churn.abrupt_kills"] == 1.0
    assert "wireless.orphaned_sends" in profile


def test_store_meta_records_churn_registry(tmp_path):
    from repro.experiments.store import ResultStore
    from repro.experiments.sweep import run_experiment

    config = ExperimentConfig.tiny().with_overrides(trials=1, max_duration=120.0)
    result = run_experiment("fig9a", config, axes={"wifi_range": (80.0,)})
    store = ResultStore(tmp_path)
    record = store.save(result, spec="fig9a", config=config)
    assert record.meta["registries"]["churn"] == "none"


# =============================================================== spec layer
def test_churn_specs_are_registered_and_plannable():
    for name, model in (("churn", "poisson"), ("flashcrowd", "flashcrowd")):
        spec = get_experiment(name)
        plans = spec.plan(ExperimentConfig.tiny())
        assert plans
        for plan in plans:
            assert plan.config.churn == model


def test_churn_spec_axis_reaches_model_params():
    spec = get_experiment("churn")
    plans = spec.plan(ExperimentConfig.tiny(), axes={"mean_session": (45.0,)})
    assert plans[0].config.churn_params["mean_session"] == 45.0
    assert plans[0].parameters["mean_session"] == 45.0


def test_cli_lists_churn_registry(capsys):
    from repro.experiments.__main__ import main

    assert main(["list", "--registries"]) == 0
    out = capsys.readouterr().out
    assert "churn" in out
    assert "poisson" in out and "flashcrowd" in out
