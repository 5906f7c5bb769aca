"""The four workloads: their inputs, their measured loops, their output checks.

Every workload is a closed loop — each repeat starts when the previous one
ends — and every repeat of one run does bit-identical work (same inputs from
the same ``--seed``), so the spread between repeats is interference and the
*best* repeat is the steadiest estimate of what the simulator costs.

Sizes are chosen so that one pass over a workload's inputs takes about 3 s
on the 2-core box this was written on (README.md records the sizing runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import DEFAULT_HOST, ClusterClient, build_submission_payload
from repro.experiments import (
    ExperimentConfig,
    ResultStore,
    SweepRequest,
    get_experiment,
    run_protocol_trial,
    run_suite,
)
from repro.experiments.metrics import RunResult, SweepResult

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SUITE = "suite_small"
SUITE_SPECS = ("fig9a", "fig9b")
POOL_WORKERS = 2
CLUSTER_WORKERS = 2
#: One simulated trial may run this long before a downloader counts as
#: failed; runs stop as soon as every downloader is done, so the headroom is
#: free on the seeds where nothing fails (all the ones tried).
MAX_DURATION = 2400.0

Trial = Tuple[str, ExperimentConfig, int]


# ------------------------------------------------------------------ inputs
def _urban(base: ExperimentConfig, **overrides) -> ExperimentConfig:
    return base.with_overrides(topology="urban_grid", propagation="obstacle", **overrides)


def trial_panel(workload: str, seed: int, smoke: bool = False) -> List[Trial]:
    """The trials one pass of a trial workload runs, derived from ``seed``."""
    if smoke:
        tiny = ExperimentConfig.tiny()
        variants = {
            "dapes_fig7": [("dapes", tiny)],
            "ip_fig7": [("bithoc", tiny), ("ekta", tiny)],
            "urban_dense": [("dapes", _urban(tiny))],
        }[workload]
        seeds = 1
    else:
        paper = ExperimentConfig.paper().with_overrides(max_duration=MAX_DURATION)
        small = ExperimentConfig.small().with_overrides(max_duration=MAX_DURATION)
        variants, seeds = {
            # Fig. 7 world (44 nodes, 300 m, range 60), broadcast NDN traffic.
            "dapes_fig7": ([("dapes", paper.with_overrides(num_files=2, file_size=50_000))], 3),
            # Same world, IP stacks: unicast + ARQ + CSMA, DSDV and DSR routing.
            "ip_fig7": (
                [
                    ("bithoc", paper.with_overrides(num_files=1, file_size=10_000)),
                    ("ekta", paper.with_overrides(num_files=1, file_size=3_000)),
                ],
                2,
            ),
            # 262 nodes on a Manhattan grid with ray-tested occlusion: above
            # the 256-node crossover where the array-native index engages.
            # Many downloaders keep traffic per simulated second high, so host
            # time tracks the event count and not the simulated duration.
            "urban_dense": (
                [
                    (
                        "dapes",
                        _urban(
                            small,
                            area_size=450.0,
                            wifi_range=60.0,
                            mobile_downloaders=60,
                            pure_forwarders=140,
                            intermediate_nodes=60,
                            num_files=1,
                            file_size=3_000,
                        ),
                    )
                ],
                1,
            ),
        }[workload]
    return [
        (protocol, config, seed * 1000 + index)
        for index in range(seeds)
        for protocol, config in variants
    ]


def suite_grid(seed: int, smoke: bool = False, profile: bool = False):
    """``(config, axes)`` of the ``suite_small`` grid (fig9a + fig9b)."""
    if smoke:
        config = ExperimentConfig.tiny().with_overrides(trials=1)
        axes = {"wifi_range": (80.0,)}
    else:
        config = ExperimentConfig.small().with_overrides(trials=2, max_duration=MAX_DURATION)
        axes = {"wifi_range": (40.0, 60.0, 80.0)}
    return config.with_overrides(base_seed=seed, profile=profile), axes


def suite_requests(config: ExperimentConfig, axes) -> List[SweepRequest]:
    return [SweepRequest(spec=get_experiment(name), config=config, axes=axes) for name in SUITE_SPECS]


# ------------------------------------------------------------------ checks
def _without_profile(value):
    if isinstance(value, dict):
        return {key: _without_profile(item) for key, item in value.items() if key != "profile"}
    if isinstance(value, list):
        return [_without_profile(item) for item in value]
    return value


def sim_digest(results: Sequence[object]) -> str:
    """sha256 over the canonical ``to_dict()`` of trial or sweep results.

    ``profile`` is dropped: it holds host wall-clock, everything else is
    simulated and must repeat exactly.
    """
    payload = [_without_profile(result.to_dict()) for result in results]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trial_results(results: Sequence[object]) -> List[RunResult]:
    """Flatten sweeps to their trials; pass trials through."""
    flat: List[RunResult] = []
    for result in results:
        if isinstance(result, SweepResult):
            for point in result.points:
                flat.extend(point.trial_results)
        else:
            flat.append(result)
    return flat


def sim_summary(results: Sequence[object]) -> Dict[str, float]:
    """The simulated headline quantities over trials or sweeps (exact for one seed)."""
    trials = trial_results(results)
    times = [elapsed for trial in trials for elapsed in trial.download_times.values()]
    return {
        "sim_download_s": sum(times) / len(times) if times else 0.0,
        "sim_transmissions": sum(trial.transmissions for trial in trials),
        "sim_events": sum(trial.events for trial in trials),
        "downloads": len(times),
        "failed_downloads": sum(len(trial.incomplete_nodes) for trial in trials),
    }


# ----------------------------------------------------------- measured loops
def peak_rss_mb() -> float:
    """Largest resident set of this process or any descendant it waited for (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


@dataclass
class Measured:
    """What the repeats of one workload produced."""

    results: List[object]
    digest: str
    # Read at the end of the first pass: the high-water mark creeps up with
    # further repeats, and how many fit in --seconds depends on the machine.
    peak_rss_mb: float = 0.0
    consistent: bool = True
    best: List[float] = field(default_factory=list)  # per unit: trial, or suite path
    passes: List[float] = field(default_factory=list)  # host seconds of each whole pass
    notes: Dict[str, object] = field(default_factory=dict)


def measure_trials(panel: Sequence[Trial], seconds: float) -> Measured:
    """Repeat the panel until ``seconds`` have passed; keep each trial's best time."""
    measured: Optional[Measured] = None
    deadline = time.perf_counter() + seconds
    while True:
        walls: List[float] = []
        results: List[object] = []
        for protocol, config, seed in panel:
            start = time.perf_counter()
            results.append(run_protocol_trial(protocol, config, seed))
            walls.append(time.perf_counter() - start)
        digest = sim_digest(results)
        if measured is None:
            measured = Measured(results=results, digest=digest, peak_rss_mb=peak_rss_mb(), best=walls)
        else:
            measured.consistent &= digest == measured.digest
            measured.best = [min(pair) for pair in zip(measured.best, walls)]
        measured.passes.append(sum(walls))
        if time.perf_counter() >= deadline:
            return measured


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under ``perfbench/out`` (inside the checkout), removed on exit."""
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_pool(config: ExperimentConfig, axes, store: Path, workers: int) -> Tuple[float, List[SweepResult]]:
    start = time.perf_counter()
    results = run_suite(suite_requests(config, axes), workers=workers, store=store)
    return time.perf_counter() - start, results


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _reap(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


def run_cluster(config: ExperimentConfig, axes, store: Path) -> Tuple[Dict[str, float], List[SweepResult]]:
    """The same grid through ``repro-experiments serve`` + two ``worker`` processes.

    Coordinator and workers are real child processes talking NDJSON over the
    host's loopback interface on an OS-assigned port; submit, status and stop
    use the same wire operations the CLI subcommands send.  Timed from
    "submission accepted" to "both workers found the coordinator idle and
    exited" — the aggregate is stored by the coordinator on the last upload,
    before that.
    """
    cli = [sys.executable, "-m", "repro.experiments"]
    env = child_env()
    children: List[subprocess.Popen] = []
    # Waits below block in waitpid (a wait with a timeout polls every 50 ms,
    # which would quantize the timings); the watchdog bounds them instead.
    watchdog = threading.Timer(150.0, lambda: [child.kill() for child in children])
    watchdog.start()
    try:
        serve = subprocess.Popen(
            cli + ["serve", "--port", "0", "--store", str(store), "--quiet"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        children.append(serve)
        ready, _, _ = select.select([serve.stdout], [], [], 30.0)
        banner = serve.stdout.readline() if ready else ""
        match = re.search(r"serving sweep tasks on \S+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"coordinator did not come up: {banner!r}")
        port = match.group(1)
        client = ClusterClient(DEFAULT_HOST, int(port), retries=5)

        payload = build_submission_payload(
            SUITE_SPECS, config, {name: axes for name in SUITE_SPECS}, resume=False
        )
        start = time.perf_counter()
        client.request("submit", **payload)
        accepted = time.perf_counter()
        workers = [
            subprocess.Popen(
                cli + ["worker", "--port", port, "--id", f"perfbench-w{index}",
                       "--exit-when-idle", "--poll-interval", "0.05", "--quiet"],
                stdout=subprocess.DEVNULL, env=env,
            )
            for index in range(CLUSTER_WORKERS)
        ]
        children.extend(workers)
        # A worker's exit status is reported, not checked: the coordinator can
        # answer the last two uploads of a submission out of order (a known
        # defect, see README.md), which ends one worker with an error after
        # its result was merged.  What is checked is the submission below.
        crashed = sum(worker.wait() != 0 for worker in workers)
        drained = time.perf_counter()
        if crashed:
            print(f"# note: {crashed} cluster worker(s) exited with an error status")

        status = client.request("status")
        client.request("stop")
        serve.wait()
        stopped = time.perf_counter()
    finally:
        watchdog.cancel()
        for child in children:
            _reap(child)

    [submission] = status["submissions"]
    if submission["state"] != "done":
        raise RuntimeError(f"cluster submission ended {submission['state']}: {submission['errors']}")
    stored = ResultStore(store)
    # The same defect can make the coordinator finalize twice: the first try
    # stores the leading sweeps and stops at the one still missing a result,
    # the second stores them all again under the same keys.  Load each once.
    refs = dict.fromkeys(f"{ref['spec']}@{ref['key']}" for ref in submission["stored"])
    results = [stored.load(ref) for ref in refs]
    timing = {
        "submit_s": accepted - start,
        "wall_s": drained - accepted,
        "drain_s": stopped - drained,
        "failed_tasks": status["tasks"].get("failed", 0),
    }
    return timing, results


def measure_suite(config: ExperimentConfig, axes, seconds: float) -> Measured:
    """Repeat (cold 2-worker pool run, 2-worker loopback cluster run) until ``seconds`` pass.

    Each run goes into its own fresh store, so nothing resumes.
    """
    measured: Optional[Measured] = None
    deadline = time.perf_counter() + seconds
    pool_walls: List[float] = []
    cluster_walls: List[float] = []
    while True:
        with scratch_dir() as pool_store, scratch_dir() as cluster_store:
            pool_wall, pool_results = run_pool(config, axes, pool_store, POOL_WORKERS)
            timing, cluster_results = run_cluster(config, axes, cluster_store)
        pool_walls.append(pool_wall)
        cluster_walls.append(timing["wall_s"])
        digest = sim_digest(pool_results)
        if measured is None:
            measured = Measured(results=pool_results, digest=digest, peak_rss_mb=peak_rss_mb())
            measured.notes["failed_tasks"] = timing["failed_tasks"]
        measured.consistent &= digest == measured.digest == sim_digest(cluster_results)
        measured.passes.append(pool_wall + timing["wall_s"])
        if time.perf_counter() >= deadline:
            measured.best = [min(pool_walls), min(cluster_walls)]
            measured.notes.update(pool_walls=pool_walls, cluster_walls=cluster_walls)
            return measured
