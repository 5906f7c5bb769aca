"""Trial runners: execute scenarios and collect the paper's metrics.

One generic :func:`run_protocol_trial` drives any protocol registered in
:mod:`repro.experiments.scenario` through the uniform :class:`Scenario`
hooks; :func:`run_trials` runs ``config.trials`` of them as a one-point
sweep on the sweep scheduler (:mod:`repro.experiments.sweep`), so its
trials share that scheduler's seeds, process pool and serial fallback.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.experiments.metrics import RunResult, SweepPoint
from repro.experiments.scenario import ExperimentConfig, get_builder
from repro.experiments.spec import ExperimentSpec, Variant
from repro.experiments.sweep import run_experiment
from repro.faults import InvariantViolationError, build_invariant_monitor
from repro.profiling import collect_run_profile


def run_protocol_trial(
    protocol: str,
    config: ExperimentConfig,
    seed: int,
    parameters: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run one trial of any registered protocol and collect the paper's metrics."""
    scenario = get_builder(protocol).build(config, seed)
    sim = scenario.sim
    expected = len(scenario.downloader_ids)
    completed: set = set()

    def _on_complete(node_id: str, when: float) -> None:
        completed.add(node_id)
        if len(completed) >= expected:
            sim.stop()

    scenario.watch_completion(_on_complete)
    # The invariant monitor is pure observation (no RNG draws, no scheduled
    # events), so installing it never changes what the simulation computes.
    monitor = build_invariant_monitor(config, sim, scenario.medium, faults=scenario.faults)
    scenario.start()
    profiling = config.profile
    start_clock = time.perf_counter() if profiling else 0.0
    sim.run(until=config.max_duration)
    wall_clock_s = time.perf_counter() - start_clock if profiling else 0.0

    download_times: Dict[str, float] = {}
    incomplete: List[str] = []
    for node_id in scenario.downloader_ids:
        elapsed = scenario.download_time(node_id)
        if elapsed is None:
            incomplete.append(node_id)
        else:
            download_times[node_id] = elapsed

    stats = scenario.medium.stats
    churn = scenario.churn
    faults = scenario.faults
    profile = (
        collect_run_profile(sim, scenario.medium, wall_clock_s, churn=churn, faults=faults)
        if profiling
        else {}
    )
    # Churn/fault counters ride in extras only when the subsystem is active,
    # so zero-churn, zero-fault results stay byte-identical to prior output.
    extras = churn.metrics() if churn is not None else {}
    if faults is not None:
        extras.update(faults.metrics())
    if monitor is not None:
        violations = monitor.finalize(scenario)
        if violations:
            raise InvariantViolationError(violations)
    return RunResult(
        protocol=protocol,
        seed=seed,
        parameters=dict(parameters or {}),
        download_times=download_times,
        incomplete_nodes=incomplete,
        transmissions=stats.frames_transmitted,
        transmissions_by_kind=dict(stats.transmitted_by_kind),
        transmissions_by_protocol=dict(stats.transmitted_by_protocol),
        collisions=stats.collisions,
        losses=stats.losses,
        duration=sim.now,
        events=sim.events_processed,
        node_loads=scenario.node_loads(),
        profile=profile,
        extras=extras,
    )


def trial_seeds(config: ExperimentConfig) -> List[int]:
    """The deterministic per-trial seeds used by serial and parallel runs alike."""
    return [config.base_seed + trial * 1009 for trial in range(config.trials)]


def run_trials(
    protocol: str,
    config: ExperimentConfig,
    label: str,
    parameters: Optional[Dict[str, object]] = None,
    workers: Optional[int] = None,
) -> SweepPoint:
    """Run ``config.trials`` trials and aggregate them into one sweep point.

    ``workers`` (default :attr:`ExperimentConfig.workers`) above one runs the
    trials on the sweep scheduler's process pool; the point, its
    ``trial_results`` included, is identical whichever mode produced it.
    """
    # Braces are doubled so the label is used verbatim, not as a template.
    variant = Variant(
        label=label.replace("{", "{{").replace("}", "}}"),
        protocol=protocol,
        parameters=dict(parameters or {}),
    )
    spec = ExperimentSpec(name="run_trials", title=label, description="", variants=(variant,))
    return run_experiment(spec, config, workers=workers).points[0]
