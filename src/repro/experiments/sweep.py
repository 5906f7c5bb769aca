"""Whole-grid sweep scheduler: one process pool for an entire experiment suite.

This module flattens an :class:`ExperimentSpec` — or a whole suite of
specs — into one list of ``(point, trial)`` tasks executed over a *single
persistent* ``ProcessPoolExecutor``, the only process pool in the package
(:func:`repro.experiments.runner.run_trials` runs here as a one-point spec):

* **Deterministic seeds** — every task's seed is derived from its point
  config exactly as in the serial path (``base_seed + trial * 1009``).
* **Order-independent aggregation** — results are keyed by
  ``(experiment, point, trial)`` and aggregated in plan order, so serial
  and parallel sweeps produce byte-identical :class:`SweepResult`s.
* **Persistence & resume** — with ``out_dir`` set, every finished task is
  written to ``<out_dir>/<experiment>-<key>/task-P-T.json`` where ``key``
  is a content hash of the flattened plan (configs, seeds, labels).  A
  killed sweep re-run with the same plan resumes from the completed tasks;
  any config/axis change produces a different key and a cold start.  The
  aggregated :class:`SweepResult` lands at ``<out_dir>/<experiment>.json``.
* **Result store** — with ``store`` set (a :class:`ResultStore` or a root
  directory), the per-task cache lives inside the store and every
  aggregated :class:`SweepResult` is saved under a content-addressed key
  with a metadata header (spec, config hash, registries, tags); see
  :mod:`repro.experiments.store`.  Both persistence paths are thin clients
  of the same :class:`~repro.experiments.store.TaskCache`.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.metrics import RunResult, SweepResult, aggregate_trials
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.spec import ExperimentSpec, PointPlan, TrialFn, get_experiment
from repro.experiments.store import ResultStore, TaskCache

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

    ``trial_fn`` travels with the task (module-level hooks pickle by
    reference, so pool workers resolve them by importing their module —
    correct under both the fork and spawn start methods); ``None`` means
    the default :func:`run_protocol_trial` path.
    """

    experiment: str
    request: int
    point: int
    trial: int
    protocol: str
    config: ExperimentConfig
    seed: int
    parameters: Tuple[Tuple[str, object], ...]
    trial_fn: Optional[TrialFn] = None


def _default_trial(
    protocol: str,
    config: ExperimentConfig,
    seed: int,
    parameters: Dict[str, object],
) -> RunResult:
    from repro.experiments.runner import run_protocol_trial

    return run_protocol_trial(protocol, config, seed, parameters=parameters)


def _execute_task(task: SweepTask) -> RunResult:
    """Module-level worker entry point (picklable for the process pool)."""
    trial_fn = task.trial_fn or _default_trial
    return trial_fn(task.protocol, task.config, task.seed, dict(task.parameters))


# ============================================================== persistence
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


# ================================================================ scheduler
def _picklable(trial_fn: TrialFn) -> bool:
    try:
        return pickle.loads(pickle.dumps(trial_fn)) is trial_fn
    except Exception:
        return False


@dataclass
class _PreparedRequest:
    spec: ExperimentSpec
    plans: List[PointPlan]
    base: ExperimentConfig
    cache: Optional[TaskCache] = None
    cache_key: Optional[str] = None
    pool_safe: bool = True
    results: Dict[Tuple[int, int], RunResult] = field(default_factory=dict)


def _prepare(
    requests: Sequence[SweepRequest],
    out_dir: Optional[Union[str, Path]],
    store: Optional[ResultStore],
) -> List[_PreparedRequest]:
    # Plan every request before the first cache directory is created, so an
    # invalid point anywhere in the suite leaves nothing behind.
    planned = [request.spec.plan(request.config, request.axes) for request in requests]
    prepared: List[_PreparedRequest] = []
    for request, plans in zip(requests, planned):
        spec = request.spec
        cache: Optional[TaskCache] = None
        cache_key: Optional[str] = None
        if out_dir is not None or store is not None:
            cache_key = sweep_cache_key(spec, plans)
            # The store's task area and the historical --out layout are both
            # thin clients of the same TaskCache (identical file format).
            if store is not None:
                cache = store.task_cache(spec.name, cache_key)
            else:
                cache = TaskCache(Path(out_dir) / f"{spec.name}-{cache_key}").ensure()
        # A task's trial hook must survive a pickle round-trip to run in a
        # pool worker; hooks that don't (lambdas, closures, REPL-defined
        # functions) fall back to in-process serial execution.
        pool_safe = spec.trial_fn is None or _picklable(spec.trial_fn)
        prepared.append(
            _PreparedRequest(
                spec=spec,
                plans=plans,
                base=spec.base_config(request.config),
                cache=cache,
                cache_key=cache_key,
                pool_safe=pool_safe,
            )
        )
    return prepared


def _flatten_tasks(prepared: Sequence[_PreparedRequest]) -> List[SweepTask]:
    tasks: List[SweepTask] = []
    for index, item in enumerate(prepared):
        for plan in item.plans:
            for trial, seed in enumerate(plan.seeds):
                tasks.append(
                    SweepTask(
                        experiment=item.spec.name,
                        request=index,
                        point=plan.index,
                        trial=trial,
                        protocol=plan.protocol,
                        config=plan.config,
                        seed=seed,
                        parameters=tuple(plan.parameters.items()),
                        trial_fn=item.spec.trial_fn if item.pool_safe else None,
                    )
                )
    return tasks


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
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    prepared = _prepare(requests, None, store)
    rows: List[Dict[str, object]] = []
    for item in prepared:
        plan_key = item.cache_key or sweep_cache_key(item.spec, item.plans)
        for plan in item.plans:
            for trial, seed in enumerate(plan.seeds):
                cached = (
                    resume
                    and item.cache is not None
                    and item.cache.load(plan.index, trial, seed) is not None
                )
                rows.append(
                    {
                        "experiment": item.spec.name,
                        "point": plan.index,
                        "label": plan.label,
                        "protocol": plan.protocol,
                        "parameters": dict(plan.parameters),
                        "trial": trial,
                        "seed": seed,
                        "task": f"{item.spec.name}-{plan_key}/task-{plan.index:04d}-{trial:03d}",
                        "cached": cached,
                    }
                )
    return rows


def _aggregate(item: _PreparedRequest) -> SweepResult:
    sweep = SweepResult(name=item.spec.title, description=item.spec.description)
    aggregate_fn = item.spec.aggregate_fn or aggregate_trials
    for plan in item.plans:
        trial_results = [item.results[(plan.index, trial)] for trial in range(len(plan.seeds))]
        point = aggregate_fn(plan.label, plan.parameters, trial_results, plan.config.percentile)
        point.trial_results = list(trial_results)
        sweep.add_point(point)
    return sweep


def run_suite(
    requests: Sequence[SweepRequest],
    *,
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, Path]] = None,
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
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    prepared = _prepare(requests, out_dir, store)
    tasks = _flatten_tasks(prepared)
    total = len(tasks)

    # Resume: satisfy tasks from the per-task cache before scheduling.
    pending: List[SweepTask] = []
    for task in tasks:
        item = prepared[task.request]
        cached = None
        if resume and item.cache is not None:
            cached = item.cache.load(task.point, task.trial, task.seed)
        if cached is not None:
            item.results[(task.point, task.trial)] = cached
        else:
            pending.append(task)
    done = total - len(pending)
    if progress is not None and done:
        progress("resumed from cache", done, total)

    if workers is None:
        workers = max((task.config.workers for task in tasks), default=1)

    def _finish(task: SweepTask, result: RunResult) -> None:
        nonlocal done
        item = prepared[task.request]
        item.results[(task.point, task.trial)] = result
        if item.cache is not None:
            item.cache.store(task.experiment, task.point, task.trial, task.seed, result)
        done += 1
        if progress is not None:
            progress(f"{task.experiment}[{task.point}] trial {task.trial}", done, total)

    parallelizable = [t for t in pending if prepared[t.request].pool_safe]
    serial_only = [t for t in pending if not prepared[t.request].pool_safe]
    if serial_only:
        # Say *why* these tasks bypass the pool: an unpicklable hook looks
        # exactly like workers=1 from the outside, and the two have very
        # different fixes (move the hook to module level vs raise workers).
        names = ", ".join(sorted({t.experiment for t in serial_only}))
        if workers > 1:
            reason = (
                "their trial hooks failed the pickle round-trip "
                "(lambdas/closures cannot reach pool workers; "
                "define the hook at module level to parallelize)"
            )
        else:
            reason = "workers=1 disables the process pool"
        warnings.warn(
            f"{len(serial_only)} task(s) from {names} will run serially: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )
    if workers > 1 and len(parallelizable) > 1:
        # Imported where the pool is created: a serial sweep, a cluster
        # worker and the read-only CLI subcommands never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(parallelizable))) as pool:
                futures = {pool.submit(_execute_task, task): task for task in parallelizable}
                for future in as_completed(futures):
                    _finish(futures[future], future.result())
            parallelizable = []
        except (OSError, BrokenProcessPool) as exc:
            remaining = [
                t for t in parallelizable
                if (t.point, t.trial) not in prepared[t.request].results
            ]
            warnings.warn(
                f"process pool unavailable ({exc!r}); "
                f"falling back to serial execution of {len(remaining)} remaining tasks",
                RuntimeWarning,
                stacklevel=2,
            )
            parallelizable = remaining
    for task in parallelizable + serial_only:
        item = prepared[task.request]
        if item.pool_safe:
            _finish(task, _execute_task(task))
        else:
            # Unpicklable hooks never reach a worker; run them in-process.
            trial_fn = item.spec.trial_fn or _default_trial
            _finish(task, trial_fn(task.protocol, task.config, task.seed, dict(task.parameters)))

    results: List[SweepResult] = []
    name_counts: Dict[str, int] = {}
    for item in prepared:
        name_counts[item.spec.name] = name_counts.get(item.spec.name, 0) + 1
    for item in prepared:
        sweep = _aggregate(item)
        if out_dir is not None:
            # Several requests for the same experiment (e.g. two configs of
            # fig9a) would clobber one <name>.json; disambiguate by plan key.
            stem = item.spec.name
            if name_counts[stem] > 1:
                stem = f"{stem}-{item.cache_key}"
            path = Path(out_dir) / f"{stem}.json"
            # With store set, the task cache lives in the store, so nothing
            # has created out_dir yet.
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(sweep.to_json() + "\n", encoding="utf-8")
        if store is not None:
            store.save(
                sweep,
                spec=item.spec,
                config=item.base,
                tags=(tag,) if tag else (),
            )
        results.append(sweep)
    return results


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    config: Optional[ExperimentConfig] = None,
    *,
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, Path]] = None,
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
        out_dir=out_dir,
        store=store,
        tag=tag,
        resume=resume,
        progress=progress,
    )
    return result
