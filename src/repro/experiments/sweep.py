"""Whole-grid sweep scheduler: one task grid for an entire experiment suite.

A :class:`SweepGrid` flattens an :class:`ExperimentSpec` — or a whole
suite of specs — into one list of ``(point, trial)`` :class:`SweepTask`\\ s
and is the one plan → tasks → finish → save path every executor shares:
:func:`run_suite` runs the grid serially or over a *single persistent*
``ProcessPoolExecutor`` (the only process pool in the package;
:func:`repro.experiments.runner.run_trials` runs here as a one-point spec),
:func:`task_listing` prints it (``run --dry-run``), and the cluster
coordinator leases its tasks to remote workers in their JSON wire form.

* **Deterministic seeds** — every task's seed is derived from its point
  config exactly as in the serial path (``base_seed + trial * 1009``).
* **Order-independent aggregation** — results are keyed by task key and
  aggregated in plan order, so serial, pool and cluster sweeps produce
  byte-identical :class:`SweepResult`\\ s.
* **Persistence & resume** — with ``store`` set (a :class:`ResultStore` or
  a root directory), every finished task is written to the store's
  :class:`~repro.experiments.store.TaskCache` under its task key, which
  contains a content hash of the flattened plan (configs, seeds, labels).
  A killed sweep re-run with the same plan resumes from the completed
  tasks; any config/axis change produces a different key and a cold start.
  Every aggregated :class:`SweepResult` is saved under a content-addressed
  key with a metadata header (spec, config hash, registries, tags); see
  :mod:`repro.experiments.store`.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.metrics import RunResult, SweepResult, aggregate_trials
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.spec import ExperimentSpec, PointPlan, get_experiment
from repro.experiments.store import ResultStore, StoredRun, TaskCache

ProgressFn = Callable[[str, int, int], None]


@dataclass
class SweepRequest:
    """One experiment to run: a spec plus its base config and axis overrides."""

    spec: ExperimentSpec
    config: Optional[ExperimentConfig] = None
    axes: Optional[Mapping[str, Sequence[object]]] = None


@dataclass(frozen=True)
class SweepTask:
    """One schedulable unit: one trial of one sweep point of one experiment.

    ``key`` is the task's content-hash key (:meth:`TaskCache.key`).  A
    task is self-describing: :meth:`run` is ``run_protocol_trial(protocol,
    config, seed)`` wherever it executes — in process, in a pool worker or,
    after a :meth:`to_wire` / :meth:`from_wire` round-trip, on a cluster
    worker.
    """

    key: str
    experiment: str
    request: int
    point: int
    trial: int
    label: str
    protocol: str
    config: ExperimentConfig
    seed: int
    parameters: Tuple[Tuple[str, object], ...]

    def run(self) -> RunResult:
        from repro.experiments.runner import run_protocol_trial

        parameters = dict(self.parameters)
        return run_protocol_trial(self.protocol, self.config, self.seed, parameters=parameters)

    def to_wire(self) -> Dict[str, object]:
        """The JSON-native form a cluster worker receives."""
        return {
            "key": self.key,
            "experiment": self.experiment,
            "request": self.request,
            "point": self.point,
            "trial": self.trial,
            "label": self.label,
            "protocol": self.protocol,
            "config": self.config.as_dict(),
            "seed": self.seed,
            "parameters": dict(self.parameters),
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "SweepTask":
        """Parse :meth:`to_wire` output back."""
        return cls(
            key=str(payload["key"]),
            experiment=str(payload["experiment"]),
            request=int(payload["request"]),
            point=int(payload["point"]),
            trial=int(payload["trial"]),
            label=str(payload["label"]),
            protocol=str(payload["protocol"]),
            config=ExperimentConfig.from_dict(dict(payload["config"])),
            seed=int(payload["seed"]),
            parameters=tuple(dict(payload["parameters"]).items()),
        )


def _execute_task(task: SweepTask) -> RunResult:
    """Module-level worker entry point (picklable for the process pool)."""
    return task.run()


def sweep_cache_key(spec: ExperimentSpec, plans: Sequence[PointPlan]) -> str:
    """Content hash of a flattened plan: same plan ⇒ same key ⇒ resumable."""
    manifest = {
        "experiment": spec.name,
        "points": [
            {
                "index": plan.index,
                "label": plan.label,
                "parameters": plan.parameters,
                "protocol": plan.protocol,
                "seeds": plan.seeds,
                "config": plan.config.as_dict(),
            }
            for plan in plans
        ],
    }
    payload = json.dumps(manifest, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


# ===================================================================== grid
class SweepGrid:
    """The flattened task grid of a suite of requests.

    Construction plans every request before touching disk (an invalid point
    anywhere in the suite leaves nothing behind) and builds each
    :class:`SweepTask` once, in plan order.  :meth:`resume` satisfies tasks
    from the store's task cache, :meth:`finish` records a result (and
    caches it), and :meth:`save` aggregates and stores every request.
    """

    def __init__(
        self,
        requests: Sequence[SweepRequest],
        store: Optional[Union[ResultStore, str, Path]] = None,
    ):
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.requests = list(requests)
        self.plans = [request.spec.plan(request.config, request.axes) for request in self.requests]
        self.caches: List[TaskCache] = []
        self.tasks: List[SweepTask] = []
        self.results: Dict[str, RunResult] = {}
        for index, (request, plans) in enumerate(zip(self.requests, self.plans)):
            spec = request.spec
            plan_key = sweep_cache_key(spec, plans)
            cache = (
                store.task_cache(spec.name, plan_key)
                if store is not None
                else TaskCache.of_plan(spec.name, plan_key)  # names keys; never touched
            )
            self.caches.append(cache)
            for plan in plans:
                for trial, seed in enumerate(plan.seeds):
                    self.tasks.append(
                        SweepTask(
                            key=cache.key(plan.index, trial),
                            experiment=spec.name,
                            request=index,
                            point=plan.index,
                            trial=trial,
                            label=plan.label,
                            protocol=plan.protocol,
                            config=plan.config,
                            seed=seed,
                            parameters=tuple(plan.parameters.items()),
                        )
                    )

    def cached(self, task: SweepTask) -> Optional[RunResult]:
        """The store's cached result for ``task``, if any."""
        if self.store is None:
            return None
        return self.caches[task.request].load(task.point, task.trial, task.seed)

    def resume(self) -> List[SweepTask]:
        """Fold in every cached result; return the tasks still to run."""
        pending: List[SweepTask] = []
        for task in self.tasks:
            cached = self.cached(task)
            if cached is None:
                pending.append(task)
            else:
                self.results[task.key] = cached
        return pending

    def finish(self, task: SweepTask, result: RunResult) -> None:
        """Record one finished task (and persist it with a store)."""
        self.results[task.key] = result
        if self.store is not None:
            self.caches[task.request].store(task.experiment, task.point, task.trial, task.seed, result)

    def save(
        self,
        tag: Optional[str] = None,
        extra: Optional[Callable[[int], Dict[str, object]]] = None,
    ) -> List[Tuple[SweepResult, Optional[StoredRun]]]:
        """Aggregate each request in plan order; with a store, save each.

        ``extra(index)`` adds metadata to request ``index``'s stored run.
        """
        saved: List[Tuple[SweepResult, Optional[StoredRun]]] = []
        for index, (request, plans) in enumerate(zip(self.requests, self.plans)):
            spec, cache = request.spec, self.caches[index]
            sweep = SweepResult(name=spec.title, description=spec.description)
            aggregate_fn = spec.aggregate_fn or aggregate_trials
            for plan in plans:
                trial_results = [
                    self.results[cache.key(plan.index, trial)] for trial in range(len(plan.seeds))
                ]
                point = aggregate_fn(plan.label, plan.parameters, trial_results, plan.config.percentile)
                point.trial_results = list(trial_results)
                sweep.add_point(point)
            record = None
            if self.store is not None:
                record = self.store.save(
                    sweep,
                    spec=spec,
                    config=spec.base_config(request.config),
                    tags=(tag,) if tag else (),
                    extra=extra(index) if extra is not None else None,
                )
            saved.append((sweep, record))
        return saved


def task_listing(
    requests: Sequence[SweepRequest],
    *,
    store: Optional[Union[ResultStore, str, Path]] = None,
    resume: bool = True,
) -> List[Dict[str, object]]:
    """The flattened task grid as rows, without executing anything.

    One row per ``(experiment, point, trial)`` cell — exactly the tasks
    ``run_suite`` would schedule and ``repro-experiments submit`` would send,
    including each cell's content-hash task key (the :class:`TaskCache` /
    cluster task id).  With ``store`` set and ``resume`` on, rows already
    satisfied by the store's task cache are flagged ``cached``.
    """
    grid = SweepGrid(requests, store)
    return [
        {
            "experiment": task.experiment,
            "point": task.point,
            "label": task.label,
            "protocol": task.protocol,
            "parameters": dict(task.parameters),
            "trial": task.trial,
            "seed": task.seed,
            "task": task.key,
            "cached": resume and grid.cached(task) is not None,
        }
        for task in grid.tasks
    ]


def run_suite(
    requests: Sequence[SweepRequest],
    *,
    workers: int = 1,
    store: Optional[Union[ResultStore, str, Path]] = None,
    tag: Optional[str] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
) -> List[SweepResult]:
    """Run a whole suite of experiments over one persistent process pool.

    Returns one :class:`SweepResult` per request, in request order.  The
    aggregates are byte-identical whichever ``workers`` value produced them.
    With ``store`` set, the per-task cache lives in the store and every
    aggregate is saved under its content key (optionally tagged).
    """
    grid = SweepGrid(requests, store)
    total = len(grid.tasks)
    pending = grid.resume() if resume else list(grid.tasks)
    done = total - len(pending)
    if progress is not None and done:
        progress("resumed from cache", done, total)

    def _finish(task: SweepTask, result: RunResult) -> None:
        nonlocal done
        grid.finish(task, result)
        done += 1
        if progress is not None:
            progress(f"{task.experiment}[{task.point}] trial {task.trial}", done, total)

    if workers > 1 and len(pending) > 1:
        # Imported where the pool is created: a serial sweep, a cluster
        # worker and the read-only CLI subcommands never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                futures = {pool.submit(_execute_task, task): task for task in pending}
                for future in as_completed(futures):
                    _finish(futures[future], future.result())
            pending = []
        except (OSError, BrokenProcessPool) as exc:
            pending = [t for t in pending if t.key not in grid.results]
            warnings.warn(
                f"process pool unavailable ({exc!r}); "
                f"falling back to serial execution of {len(pending)} remaining tasks",
                RuntimeWarning,
                stacklevel=2,
            )
    for task in pending:
        _finish(task, _execute_task(task))
    return [sweep for sweep, _ in grid.save(tag=tag)]


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    config: Optional[ExperimentConfig] = None,
    *,
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    workers: int = 1,
    store: Optional[Union[ResultStore, str, Path]] = None,
    tag: Optional[str] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run one registered experiment (or an ad-hoc spec) and aggregate it.

    ``axes`` overrides selected axis values by name, e.g.
    ``run_experiment("fig9a", axes={"wifi_range": (40.0, 80.0)})``; ``store``
    (a :class:`ResultStore` or its root directory) persists the aggregate
    under a content-addressed key, optionally tagged.
    """
    spec = get_experiment(experiment) if isinstance(experiment, str) else experiment
    [result] = run_suite(
        [SweepRequest(spec=spec, config=config, axes=axes)],
        workers=workers,
        store=store,
        tag=tag,
        resume=resume,
        progress=progress,
    )
    return result
