"""The ``--trace 1`` pass: per-layer host time, exact counts, probes, suite split.

Timed and traced work never mix: the pass first repeats the workload
untraced (its best time is the base of ``trace_overhead_ratio`` and of
``simulation.events_per_s``), then runs the same inputs once more under the
cProfile hook of :mod:`layers`.  Counts come from what the program reports
about itself (``RunResult``, ``RunResult.profile``, ``node_loads``,
``ForwarderStats``); they are simulated quantities and repeat exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

from repro.experiments import get_builder, run_protocol_trial
from repro.experiments import runner as runner_module
from repro.experiments.metrics import RunResult, aggregate_trials
from repro.experiments.store import ResultStore

from layers import LAYERS, profile_call
from probes import run_probes
from workloads import (
    CLUSTER_WORKERS,
    POOL_WORKERS,
    Measured,
    Trial,
    measure_trials,
    run_cluster,
    run_pool,
    scratch_dir,
    sim_digest,
    sim_summary,
    suite_requests,
    trial_results,
)

#: metric name -> key of ``RunResult.profile`` (summed over the pass's trials).
PROFILE_COUNTS = {
    "simulation.events": "engine.events",
    "mobility.legs_generated": "mobility.legs_generated",
    "wireless.spatial.snapshot_rebuilds": "spatial.snapshot_rebuilds",
    "wireless.spatial.array_rebuilds": "spatial.array_rebuilds",
    "wireless.propagation.link_evaluations": "wireless.link_evaluations",
    "wireless.propagation.occlusion_checks": "propagation.occlusion_checks",
    "wireless.medium.frames": "wireless.frames_transmitted",
    "wireless.medium.deliveries": "wireless.deliveries",
    "wireless.medium.collisions": "wireless.collisions",
    "wireless.medium.losses": "wireless.losses",
    "wireless.medium.csma_deferrals": "wireless.csma_deferrals",
    "wireless.medium.arq_retries": "wireless.arq_retries",
}
#: metric name -> key of each node's ``node_loads`` entry.
LOAD_COUNTS = {
    "core.messages_sent": "messages_sent",
    "core.bitmaps_sent": "bitmaps_sent",
    "core.packets_downloaded": "packets_downloaded",
    "core.packets_overheard": "packets_overheard",
    "core.retransmissions": "retransmissions",
}
NDN_COUNTS = (
    "interests_received", "data_received", "interests_forwarded", "cs_hits_served", "pit_expirations",
)
SUITE_METRICS = (
    "experiments.serial_s", "experiments.simulate_s", "experiments.aggregate_s",
    "experiments.store_write_s", "experiments.store_read_s", "experiments.resume_s",
    "experiments.pool_wall_s", "experiments.pool_busy_share",
    "cluster.submit_s", "cluster.wall_s", "cluster.drain_s", "cluster.busy_share",
    "cluster.overhead_ratio",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@contextmanager
def forwarder_totals() -> Iterator[Dict[str, int]]:
    """Sum ``ForwarderStats`` over every scenario the trial runner builds meanwhile.

    ``RunResult`` does not carry the NDN forwarders' counters, so while this
    is installed the runner's builder lookup hands out builders that remember
    the scenario they built; each is read once its trial is over (when the
    next one is built, or on exit — totals are complete after exit).
    """
    totals = dict.fromkeys(NDN_COUNTS, 0)
    built: List[object] = []

    def harvest() -> None:
        while built:
            scenario = built.pop()
            nodes = [*getattr(scenario, "nodes", {}).values(),
                     *getattr(scenario, "pure_forwarders", {}).values()]
            for node in nodes:
                for name in NDN_COUNTS:
                    totals[name] += getattr(node.forwarder.stats, name)

    lookup = runner_module.get_builder

    def remembering(protocol: str):
        builder = lookup(protocol)
        build = builder.build

        def build_and_remember(*args, **kwargs):
            harvest()
            built.append(build(*args, **kwargs))
            return built[-1]

        builder.build = build_and_remember
        return builder

    runner_module.get_builder = remembering
    try:
        yield totals
    finally:
        runner_module.get_builder = lookup
        harvest()


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {
        f"{layer}.{column}": float(table[layer][column])
        for layer in LAYERS
        for column in ("self_s", "self_share", "calls")
    }


def count_metrics(trials: Sequence[RunResult], ndn: Dict[str, int], untraced_wall: float) -> Dict[str, float]:
    """The exact counts of one pass, plus the ratios derived from them."""
    metrics = {
        name: float(sum(trial.profile.get(key, 0.0) for trial in trials))
        for name, key in PROFILE_COUNTS.items()
    }
    for name, key in LOAD_COUNTS.items():
        metrics[name] = float(sum(load.get(key, 0) for trial in trials for load in trial.node_loads.values()))
    for name in NDN_COUNTS:
        metrics[f"ndn.{name}"] = float(ndn[name])
    cache_hits = sum(trial.profile.get("propagation.occlusion_cache_hits", 0.0) for trial in trials)
    receptions = sum(metrics[f"wireless.medium.{kind}"] for kind in ("deliveries", "collisions", "losses"))
    metrics["simulation.events_per_s"] = _ratio(metrics["simulation.events"], untraced_wall)
    metrics["wireless.propagation.occlusion_hit_ratio"] = _ratio(
        cache_hits, cache_hits + metrics["wireless.propagation.occlusion_checks"]
    )
    metrics["wireless.medium.delivery_ratio"] = _ratio(metrics["wireless.medium.deliveries"], receptions)
    metrics["core.useful_data_ratio"] = _ratio(metrics["core.packets_downloaded"], metrics["ndn.data_received"])
    summary = sim_summary(trials)
    metrics["sim_download_s"] = summary["sim_download_s"]
    metrics["sim_transmissions"] = float(summary["sim_transmissions"])
    return metrics


def _with_profile(panel: Sequence[Trial]) -> List[Trial]:
    return [(protocol, config.with_overrides(profile=True), seed) for protocol, config, seed in panel]


def trace_trials(panel: Sequence[Trial], seconds: float):
    """``(measured, metrics, top_functions)`` for a trial workload."""
    panel = _with_profile(panel)
    measured = measure_trials(panel, seconds / 3)
    untraced_wall = sum(measured.best)
    with forwarder_totals() as ndn:
        traced, traced_wall, table, top = profile_call(
            lambda: [run_protocol_trial(*trial) for trial in panel]
        )
    measured.consistent &= sim_digest(traced) == measured.digest
    metrics = layer_metrics(table)
    metrics["trace_overhead_ratio"] = traced_wall / untraced_wall
    metrics.update(count_metrics(measured.results, ndn, untraced_wall))
    metrics.update(dict.fromkeys(SUITE_METRICS, 0.0))
    protocol, config, seed = panel[0]
    metrics.update(run_probes(get_builder(protocol).build(config, seed)))
    return measured, metrics, top


def _task_seconds(results: Sequence[object]) -> float:
    return sum(trial.profile.get("wall_clock_s", 0.0) for trial in trial_results(results))


def _store_io(config, results: Sequence[object]) -> Dict[str, float]:
    """Replay the suite's aggregation and store traffic through the public calls, timed."""
    requests = suite_requests(config, None)
    start = time.perf_counter()
    for sweep in results:
        for point in sweep.points:
            aggregate_trials(point.label, point.parameters, point.trial_results, config.percentile)
    aggregated = time.perf_counter()
    with scratch_dir() as root:
        store = ResultStore(root)
        caches = [store.task_cache(request.spec.name, "perfbench") for request in requests]
        start_write = time.perf_counter()
        for request, cache, sweep in zip(requests, caches, results):
            for index, point in enumerate(sweep.points):
                for trial, result in enumerate(point.trial_results):
                    cache.store(request.spec.name, index, trial, result.seed, result)
            store.save(sweep, spec=request.spec, config=config)
        written = time.perf_counter()
        for request, cache, sweep in zip(requests, caches, results):
            for index, point in enumerate(sweep.points):
                for trial, result in enumerate(point.trial_results):
                    cache.load(index, trial, result.seed)
            store.load(request.spec.name)
        read = time.perf_counter()
    return {
        "experiments.aggregate_s": aggregated - start,
        "experiments.store_write_s": written - start_write,
        "experiments.store_read_s": read - written,
    }


def trace_suite(config, axes):
    """``(measured, metrics, top_functions)`` for ``suite_small`` (``config.profile`` is on)."""
    with scratch_dir() as serial_store, scratch_dir() as pool_store, \
            scratch_dir() as cluster_store, scratch_dir() as traced_store:
        serial_s, serial = run_pool(config, axes, serial_store, workers=1)
        resume_s = min(run_pool(config, axes, serial_store, workers=1)[0] for _ in range(5))
        pool_s, pooled = run_pool(config, axes, pool_store, POOL_WORKERS)
        cluster, clustered = run_cluster(config, axes, cluster_store)
        with forwarder_totals() as ndn:
            traced, traced_wall, table, top = profile_call(
                lambda: run_pool(config, axes, traced_store, workers=1)[1]
            )
    digest = sim_digest(serial)
    measured = Measured(
        results=serial,
        digest=digest,
        consistent=all(sim_digest(other) == digest for other in (pooled, clustered, traced)),
        best=[serial_s],
        passes=[serial_s],
        notes={"failed_tasks": cluster["failed_tasks"]},
    )
    metrics = layer_metrics(table)
    metrics["trace_overhead_ratio"] = traced_wall / serial_s
    metrics.update(count_metrics(trial_results(serial), ndn, serial_s))
    metrics.update(_store_io(config, serial))
    metrics.update({
        "experiments.serial_s": serial_s,
        "experiments.simulate_s": _task_seconds(serial),
        "experiments.resume_s": resume_s,
        "experiments.pool_wall_s": pool_s,
        "experiments.pool_busy_share": _ratio(_task_seconds(pooled), POOL_WORKERS * pool_s),
        "cluster.submit_s": cluster["submit_s"],
        "cluster.wall_s": cluster["wall_s"],
        "cluster.drain_s": cluster["drain_s"],
        "cluster.busy_share": _ratio(_task_seconds(clustered), CLUSTER_WORKERS * cluster["wall_s"]),
        "cluster.overhead_ratio": cluster["wall_s"] / pool_s,
    })
    first = suite_requests(config, axes)[0].spec.plan(config, axes)[0]
    metrics.update(run_probes(get_builder(first.protocol).build(first.config, first.seeds[0])))
    return measured, metrics, top
