"""Tests for the profiling subsystem and the --profile wiring."""

import json

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.metrics import RunResult
from repro.experiments.runner import run_protocol_trial
from repro.profiling import Profiler, format_profile, merge_profiles

from oracles import oracle


def test_profiler_counters_and_timers():
    profiler = Profiler()
    profiler.count("frames")
    profiler.count("frames", 2)
    with profiler.timer("phase"):
        pass
    snapshot = profiler.snapshot()
    assert snapshot["frames"] == 3
    assert snapshot["phase_calls"] == 1
    assert snapshot["phase_s"] >= 0.0


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
    assert "engine.events_per_sec" in profiled.profile
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
    assert "spatial.reuse_hits" not in brute.profile
    assert brute.profile["wireless.deliveries"] == profile["wireless.deliveries"]


def test_profile_roundtrips_through_json_but_stays_optional():
    result = RunResult(protocol="dapes", seed=1, events=10)
    assert "profile" not in result.to_dict()  # unprofiled payloads unchanged
    result.profile = {"wall_clock_s": 0.5, "engine.events": 10.0}
    payload = result.to_dict()
    assert payload["profile"]["engine.events"] == 10.0
    clone = RunResult.from_dict(json.loads(json.dumps(payload)))
    assert clone.profile == result.profile


def test_merge_profiles_sums_counts_and_recomputes_rates():
    merged = merge_profiles(
        [
            {"wall_clock_s": 1.0, "engine.events": 100.0, "engine.events_per_sec": 100.0},
            {"wall_clock_s": 1.0, "engine.events": 300.0, "engine.events_per_sec": 300.0},
        ]
    )
    assert merged["engine.events"] == 400.0
    assert merged["engine.events_per_sec"] == pytest.approx(200.0)
    text = format_profile(merged)
    assert "[engine]" in text and "events_per_sec" in text


def test_cli_run_with_profile_smoke(capsys):
    code = experiments_main(
        ["run", "fig9a", "--preset", "tiny", "--trials", "1", "--quiet", "--profile",
         "--axis", "wifi_range=60"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "profile:" in out and "[wireless]" in out
    assert "reuse_hits" in out and "reuse_misses" in out
