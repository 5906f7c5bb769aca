"""Trial runners: execute scenarios and collect the paper's metrics.

One generic :func:`run_protocol_trial` drives any protocol registered in
:mod:`repro.experiments.scenario` through the uniform :class:`Scenario`
hooks, and :func:`run_trials` fans the per-trial work out over a process
pool when :attr:`ExperimentConfig.workers` is above one.  Parallel execution
is seed-deterministic: every trial derives its own seed from
``config.base_seed`` exactly as in the serial path and results are
aggregated in trial order, so the resulting :class:`SweepPoint` is identical
whichever mode produced it.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List, Optional

from repro.core import DapesConfig
from repro.experiments.metrics import RunResult, SweepPoint, aggregate_trials
from repro.experiments.scenario import ExperimentConfig, get_builder
from repro.faults import InvariantViolationError, build_invariant_monitor
from repro.profiling import collect_run_profile


def run_protocol_trial(
    protocol: str,
    config: ExperimentConfig,
    seed: int,
    dapes_config: Optional[DapesConfig] = None,
    parameters: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run one trial of any registered protocol and collect the paper's metrics."""
    scenario = get_builder(protocol).build(config, seed, dapes_config=dapes_config)
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
    monitor = build_invariant_monitor(
        config, sim, scenario.medium, faults=getattr(scenario, "faults", None)
    )
    scenario.start()
    profiling = bool(getattr(config, "profile", False))
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
    faults = getattr(scenario, "faults", None)
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


def run_dapes_trial(
    config: ExperimentConfig,
    seed: int,
    dapes_config: Optional[DapesConfig] = None,
    parameters: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run one DAPES trial and collect download times and overhead."""
    return run_protocol_trial(
        "dapes", config, seed, dapes_config=dapes_config, parameters=parameters
    )


def run_ip_trial(
    config: ExperimentConfig,
    seed: int,
    protocol: str,
    parameters: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run one Bithoc or Ekta trial and collect the same metrics."""
    if protocol not in ("bithoc", "ekta"):
        raise ValueError(f"unknown IP baseline {protocol!r}")
    return run_protocol_trial(protocol, config, seed, parameters=parameters)


def trial_seeds(config: ExperimentConfig) -> List[int]:
    """The deterministic per-trial seeds used by serial and parallel runs alike."""
    return [config.base_seed + trial * 1009 for trial in range(config.trials)]


def _pool_trial(args) -> RunResult:
    """Module-level worker so the process pool can pickle it."""
    protocol, config, seed, dapes_config, parameters = args
    return run_protocol_trial(
        protocol, config, seed, dapes_config=dapes_config, parameters=parameters
    )


def run_trials(
    protocol: str,
    config: ExperimentConfig,
    label: str,
    parameters: Optional[Dict[str, object]] = None,
    dapes_config: Optional[DapesConfig] = None,
    workers: Optional[int] = None,
) -> SweepPoint:
    """Run ``config.trials`` trials and aggregate them into one sweep point.

    ``workers`` (default :attr:`ExperimentConfig.workers`) above one runs the
    trials on a process pool; the aggregate is identical to the serial path
    because seeds and aggregation order do not depend on the execution mode.
    """
    workers = config.workers if workers is None else workers
    seeds = trial_seeds(config)
    results: Optional[List[RunResult]] = None
    if workers > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        tasks = [(protocol, config, seed, dapes_config, parameters) for seed in seeds]
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
                results = list(pool.map(_pool_trial, tasks))
        except (OSError, BrokenProcessPool) as exc:
            # Process pools may be unavailable (restricted sandboxes); the
            # serial path below produces the same aggregate, just slower.
            warnings.warn(
                f"process pool unavailable ({exc!r}); "
                f"falling back to serial execution of {len(seeds)} trials",
                RuntimeWarning,
                stacklevel=2,
            )
            results = None
    if results is None:
        results = [
            run_protocol_trial(
                protocol,
                config,
                seed,
                dapes_config=dapes_config,
                parameters=parameters,
            )
            for seed in seeds
        ]
    point = aggregate_trials(label, parameters or {}, results, q=config.percentile)
    # Carry the raw trials so trial-level queries (ResultSet.trials()) and
    # trial-level diffs work on single-point runs too; excluded from
    # equality, so aggregates still compare identically without them.
    point.trial_results = list(results)
    return point
