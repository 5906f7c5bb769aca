"""Tests for the profiling subsystem, --profile wiring and the perf gate."""

import json

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.metrics import RunResult
from repro.experiments.runner import run_protocol_trial
from repro.profiling import Profiler, format_profile, merge_profiles


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
    brute = run_protocol_trial("bithoc", config.with_overrides(neighbor_index="brute"), seed=1)
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


# ---------------------------------------------------------------- perf gate
def _write_baseline(tmp_path, events_per_sec):
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps({"events_per_sec": events_per_sec}), encoding="utf-8")
    return path


def gate_args(baseline, min_ratio):
    return [
        "perf-gate", "--baseline", str(baseline), "--min-ratio", str(min_ratio),
        "--trials", "1", "--wifi-range", "80", "--no-warmup",
    ]


def test_perf_gate_passes_against_low_baseline(tmp_path, capsys):
    baseline = _write_baseline(tmp_path, events_per_sec=1.0)
    assert experiments_main(gate_args(baseline, 0.75)) == 0
    assert "perf-gate: OK" in capsys.readouterr().out


def test_perf_gate_fails_on_regression(tmp_path, capsys):
    baseline = _write_baseline(tmp_path, events_per_sec=1e12)
    assert experiments_main(gate_args(baseline, 0.75)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_perf_gate_requires_baseline_file(tmp_path):
    with pytest.raises(SystemExit):
        experiments_main(gate_args(tmp_path / "missing.json", 0.75))
