"""The process-pool runners must mirror the serial path exactly."""

import pytest

from repro.experiments import ExperimentConfig, available_protocols, run_experiment, run_trials
from repro.experiments.runner import trial_seeds


def test_trial_seeds_are_deterministic():
    config = ExperimentConfig.tiny().with_overrides(trials=4, base_seed=100)
    assert trial_seeds(config) == [100, 1109, 2118, 3127]


def test_parallel_run_trials_matches_serial_aggregate():
    config = ExperimentConfig.tiny().with_overrides(trials=3, max_duration=180.0)
    parameters = {"wifi_range": config.wifi_range}
    serial = run_trials("dapes", config, "DAPES", parameters=parameters, workers=1)
    parallel = run_trials("dapes", config, "DAPES", parameters=parameters, workers=3)
    assert serial == parallel


def test_registered_protocols_include_all_paper_protocols():
    assert set(available_protocols()) >= {"dapes", "bithoc", "ekta"}


# ------------------------------------------------------------ sweep level
def test_parallel_sweep_matches_serial_sweep():
    """The whole-grid scheduler: serial and parallel aggregates are identical."""
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=180.0)
    axes = {"wifi_range": (60.0, 80.0)}
    serial = run_experiment("fig9a", config, axes=axes, workers=1)
    parallel = run_experiment("fig9a", config, axes=axes, workers=4)
    assert serial == parallel
    assert serial.rows() == parallel.rows()
    # The raw per-trial results must match too (same seeds, same order).
    for point_s, point_p in zip(serial.points, parallel.points):
        assert point_s.trial_results == point_p.trial_results


def test_parallel_suite_matches_serial_suite():
    """A whole suite shares one pool and still reproduces the serial outputs."""
    from repro.experiments import SweepRequest, get_experiment, run_suite

    config = ExperimentConfig.tiny().with_overrides(max_duration=180.0)
    requests = [
        SweepRequest(spec=get_experiment("fig9a"), config=config, axes={"wifi_range": (80.0,)}),
        SweepRequest(spec=get_experiment("fig10"), config=config, axes={"wifi_range": (80.0,)}),
    ]
    serial = run_suite(requests, workers=1)
    parallel = run_suite(requests, workers=4)
    assert serial == parallel


# --------------------------------------------------------- fallback paths
def _broken_pool(*args, **kwargs):
    raise OSError("process pools are disabled in this sandbox")


def test_run_trials_fallback_to_serial_warns(monkeypatch):
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=180.0)
    reference = run_trials("dapes", config, "DAPES", workers=1)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _broken_pool)
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        fallback = run_trials("dapes", config, "DAPES", workers=2)
    assert fallback == reference


def test_sweep_fallback_to_serial_warns(monkeypatch):
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=180.0)
    axes = {"wifi_range": (80.0,)}
    reference = run_experiment("fig9a", config, axes=axes, workers=1)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _broken_pool)
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        fallback = run_experiment("fig9a", config, axes=axes, workers=4)
    assert fallback == reference
