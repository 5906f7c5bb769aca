"""Tests for the profiling subsystem and the --profile wiring."""

import json

import pytest

import repro.experiments.runner as runner
from repro.experiments import ExperimentConfig
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.metrics import RunResult, aggregate_trials
from repro.experiments.runner import run_protocol_trial
from repro.profiling import collect_run_profile, format_profile, merge_profiles
from repro.simulation import Simulator
from repro.wireless import WirelessMedium

from oracles import oracle

#: One world per protocol on tiny(), then one per optional layer.
WORLDS = {
    "dapes": ("dapes", {}),
    "bithoc": ("bithoc", {}),
    "ekta": ("ekta", {}),
    "urban_obstacle": ("dapes", {"topology": "urban_grid", "propagation": "obstacle"}),
    "log_distance": ("dapes", {"propagation": "log_distance"}),
    "poisson_churn": ("dapes", {"churn": "poisson"}),
    "link_flap": ("dapes", {"faults": "link_flap", "invariants": True}),
}


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_profile_is_wall_clock_merged_with_each_layers_metrics(world, monkeypatch):
    protocol, overrides = WORLDS[world]
    config = ExperimentConfig.tiny().with_overrides(max_duration=30.0, profile=True, **overrides)
    calls = []

    def spy(wall_clock_s, *layers):
        calls.append((wall_clock_s, layers))
        return collect_run_profile(wall_clock_s, *layers)

    monkeypatch.setattr(runner, "collect_run_profile", spy)
    result = run_protocol_trial(protocol, config, seed=1)
    [(wall_clock_s, (sim, medium, churn, faults, monitor))] = calls
    assert isinstance(sim, Simulator) and isinstance(medium, WirelessMedium)
    expected = {"wall_clock_s": wall_clock_s, **sim.metrics(), **medium.metrics()}
    for layer in (churn, faults, monitor):
        if layer is not None:
            expected.update(layer.metrics())
    profile = result.profile
    assert profile == expected
    # The medium reports for the models it owns.
    for owned in (medium.propagation, medium.mobility):
        assert owned.metrics().items() <= profile.items()
    assert profile["engine.events"] == result.events
    assert profile["wireless.frames_transmitted"] == result.transmissions
    assert profile["spatial.snapshot_rebuilds"] > 0
    assert not any(key.endswith("_per_sec") for key in profile)
    # Churn and fault counters carry the names they have in extras, once.
    managed = {key for key in profile if key.startswith(("churn.", "faults.", "recovery."))}
    assert managed == set(result.extras)
    assert ("propagation.occlusion_checks" in profile) == (world == "urban_obstacle")
    if monitor is not None:
        assert profile["invariants.deliveries_checked"] > 0
        assert profile["invariants.downloads_checked"] == len(result.download_times) + len(
            result.incomplete_nodes
        )
    else:
        assert not any(key.startswith("invariants.") for key in profile)


def test_run_profile_collected_only_when_enabled():
    config = ExperimentConfig.tiny().with_overrides(max_duration=30.0)
    plain = run_protocol_trial("dapes", config, seed=1)
    assert plain.profile == {}
    profiled = run_protocol_trial(
        "dapes", config.with_overrides(profile=True), seed=1
    )
    assert profiled.profile["engine.events"] == plain.events == profiled.events
    assert profiled.profile["wireless.frames_transmitted"] == profiled.transmissions
    assert profiled.profile["wall_clock_s"] > 0
    # Profiling must not change the simulation outcome (profile excluded
    # from equality by construction).
    assert profiled == plain


def test_run_profile_reports_neighbour_set_reuse_traffic():
    config = ExperimentConfig.tiny().with_overrides(max_duration=30.0, profile=True)
    profile = run_protocol_trial("bithoc", config, seed=1).profile
    hits, misses = profile["spatial.reuse_hits"], profile["spatial.reuse_misses"]
    # IP senders ask for their neighbours and transmit at one timestamp, so
    # some queries are always answered from memory; every snapshot rebuild
    # was forced by a query that was not.
    assert hits > 0 and misses >= profile["spatial.snapshot_rebuilds"] > 0
    # The brute-force oracle remembers nothing and reports nothing.
    with oracle(index="brute"):
        brute = run_protocol_trial("bithoc", config, seed=1)
    assert not any(key.startswith("spatial.") for key in brute.profile)
    assert brute.profile["wireless.deliveries"] == profile["wireless.deliveries"]


def test_profile_roundtrips_through_json_but_stays_optional():
    result = RunResult(protocol="dapes", seed=1, events=10)
    assert "profile" not in result.to_dict()  # unprofiled payloads unchanged
    result.profile = {"wall_clock_s": 0.5, "engine.events": 10.0}
    payload = result.to_dict()
    assert payload["profile"]["engine.events"] == 10.0
    clone = RunResult.from_dict(json.loads(json.dumps(payload)))
    assert clone.profile == result.profile


def test_merge_profiles_combines_each_counter_like_aggregate_trials():
    fault_counters = [
        {"faults.link_blocks": 3.0, "recovery.goodput_under_fault": 20.0,
         "recovery.time_to_recover_mean": 0.0004, "recovery.time_to_recover_max": 0.0005},
        {"faults.link_blocks": 5.0, "recovery.goodput_under_fault": 23.5,
         "recovery.time_to_recover_mean": 0.00046, "recovery.time_to_recover_max": 0.0007},
        {"faults.link_blocks": 1.0},  # a trial in which no fault was active
    ]
    trials = [
        RunResult(protocol="dapes", seed=seed, download_times={"a": 1.0}, extras=counters,
                  profile={"wall_clock_s": 0.5, "engine.events": 100.0, **counters})
        for seed, counters in enumerate(fault_counters)
    ]
    point = aggregate_trials("L", {}, trials)
    merged = merge_profiles([trial.profile for trial in trials])
    # The profile printed under a result row agrees with the row: counts
    # sum, _mean and goodput average, _max takes the worst trial.
    assert {key: merged[key] for key in point.extras} == point.extras
    assert merged["recovery.goodput_under_fault"] == 21.75
    assert merged["recovery.time_to_recover_max"] == 0.0007
    assert merged["faults.link_blocks"] == 9.0
    assert merged["engine.events"] == 300.0
    assert merged["wall_clock_s"] == 1.5
    # Counts print as integers; seconds, rates and means keep 4 significant
    # digits instead of rounding to 0.
    rendered = {line.split()[0]: line.split()[1] for line in format_profile(merged).splitlines()
                if line.startswith("    ")}
    assert rendered["time_to_recover_mean"] == "0.00043"
    assert rendered["time_to_recover_max"] == "0.0007"
    assert rendered["goodput_under_fault"] == "21.75"
    assert rendered["link_blocks"] == "9"
    assert rendered["events"] == "300"
    assert rendered["wall_clock_s"] == "1.5s"


def test_cli_run_with_profile_smoke(capsys):
    code = experiments_main(
        ["run", "fig9a", "--preset", "tiny", "--trials", "1", "--quiet", "--profile",
         "--axis", "wifi_range=60"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "profile:" in out and "[wireless]" in out
    assert "reuse_hits" in out and "reuse_misses" in out
    assert "[spatial]" in out and "per_sec" not in out
