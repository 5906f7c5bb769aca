"""Experiments CLI: list, run, store, report and diff the paper's artefacts.

Usage (also installed as the ``repro-experiments`` console script)::

    python -m repro.experiments list
    python -m repro.experiments run fig9a --preset tiny --workers 2
    python -m repro.experiments run all --preset small --workers 8 --store sweeps
    python -m repro.experiments run fig10 --axis wifi_range=40,80 --trials 2
    python -m repro.experiments run fig9a --store results-store --tag nightly
    python -m repro.experiments report fig9a --store results-store
    python -m repro.experiments report fig9a@nightly --metric extras.events
    python -m repro.experiments diff fig9a@nightly benchmark_results/BENCH_fig-9a-*.json
    python -m repro.experiments export fig9a --format gnuplot --axis wifi_range
    python -m repro.experiments store list
    python -m repro.experiments store gc --keep 3
    python -m repro.experiments run fig9a --preset tiny --dry-run
    python -m repro.experiments serve --store results-store --port 7341
    python -m repro.experiments worker --port 7341 --exit-when-idle
    python -m repro.experiments submit fig9a --preset tiny --tag cluster
    python -m repro.experiments status --port 7341
    python -m repro.experiments stop --port 7341

``run`` flattens every requested experiment into one task grid executed
over a single persistent process pool; with ``--store`` each finished task
is persisted (content-hash keyed), so an interrupted sweep resumes from the
completed tasks on the next invocation, and every aggregate is saved into a
content-addressed :class:`~repro.experiments.store.ResultStore`
(optionally ``--tag``-ged).
``report``/``diff``/``export`` consume stored runs by reference (``fig9a``,
``fig9a@latest``, ``fig9a@<tag>``, ``fig9a@<key>``) or persisted JSON files
(full ``SweepResult`` dumps and the row-based ``BENCH_*.json`` artifacts
alike).  ``--profile`` collects per-trial performance counters (see
:mod:`repro.profiling`) and prints the aggregated per-subsystem breakdown.

``serve``/``worker``/``submit``/``status``/``stop`` drive the distributed
sweep cluster (:mod:`repro.cluster`): a coordinator serves the same task
grid ``run`` would execute to worker loops over localhost/LAN TCP, merging
results through the shared store so cluster, pool and serial runs are
byte-identical and resume each other.  ``run --dry-run`` prints that grid
(point/variant/trial × content-hash task key) without executing — the exact
listing ``submit`` sends.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments import report as report_mod
from repro.experiments.metrics import SweepResult
from repro.experiments.query import ResultSet
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.spec import PlanError, available_experiments, get_experiment
from repro.experiments.store import ResultStore, StoredRun, content_key
from repro.experiments.sweep import SweepGrid, SweepRequest, run_suite, task_listing
from repro.profiling import format_profile, merge_profiles

DEFAULT_STORE = "results-store"


def _parse_axis_value(token: str) -> object:
    token = token.strip()
    if token.lower() in ("none", "null"):
        return None
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            continue
    return token


def _parse_axis_overrides(entries: Sequence[str]) -> Dict[str, tuple]:
    axes: Dict[str, tuple] = {}
    for entry in entries:
        if "=" not in entry:
            raise PlanError(f"--axis expects NAME=V1,V2,... (got {entry!r})")
        name, _, values = entry.partition("=")
        name = name.strip()
        if name in axes:
            raise PlanError(f"--axis {name} given twice; list every value in one NAME=V1,V2,...")
        axes[name] = tuple(_parse_axis_value(value) for value in values.split(","))
    return axes


def _bounded(kind: type, low: float, *, inclusive: bool = True):
    """An argparse ``type``: a finite ``kind`` number >= ``low`` (> unless ``inclusive``)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not math.isfinite(value) or value < low or (value == low and not inclusive):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low:g}, got {text}"
            )
        return value

    return parse


def _resolve_names(names: Sequence[str]) -> List[str]:
    if any(name.lower() == "all" for name in names):
        return available_experiments()
    resolved: List[str] = []
    for name in names:
        try:
            spec = get_experiment(name)
        except ValueError as exc:  # a typo: the message lists the available names
            raise PlanError(str(exc)) from None
        if spec.name not in resolved:
            resolved.append(spec.name)
    return resolved


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in available_experiments():
        spec = get_experiment(name)
        rows.append((name, ", ".join(spec.artefacts), spec.task_count(), spec.title))
    name_width = max(len(row[0]) for row in rows)
    artefact_width = max(len(row[1]) for row in rows)
    print(f"{'name':<{name_width}}  {'artefacts':<{artefact_width}}  tasks  title")
    for name, artefacts, tasks, title in rows:
        print(f"{name:<{name_width}}  {artefacts:<{artefact_width}}  {tasks:>5}  {title}")
    print("\n(tasks = points x trials at the default small() preset and axes)")
    if getattr(args, "registries", False):
        from repro.churn import available_churn_models
        from repro.experiments.scenario import available_protocols
        from repro.experiments.topology import available_topologies
        from repro.faults import available_fault_models
        from repro.wireless.propagation import available_propagation_models

        print()
        print("registries (select via ExperimentConfig / ChannelConfig / --topology):")
        print(f"  topologies  : {', '.join(available_topologies())}")
        print(f"  protocols   : {', '.join(available_protocols())}")
        print(f"  propagation : {', '.join(available_propagation_models())}")
        print(f"  churn       : {', '.join(available_churn_models())}")
        print(f"  faults      : {', '.join(available_fault_models())}")
    return 0


def _config_from_args(args: argparse.Namespace) -> tuple:
    """``(config, overrides)`` from the shared sweep-config flags."""
    overrides: Dict[str, object] = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.topology is not None:
        overrides["topology"] = args.topology
    if args.propagation is not None:
        overrides["propagation"] = args.propagation
    if args.churn is not None:
        overrides["churn"] = args.churn
    if args.faults is not None:
        overrides["faults"] = args.faults
    if args.profile:
        overrides["profile"] = True
    config = ExperimentConfig.preset(args.preset).with_overrides(**overrides)
    return config, overrides


def _build_requests(
    names: Sequence[str],
    config: ExperimentConfig,
    axes: Dict[str, tuple],
    overrides: Dict[str, object],
) -> List[SweepRequest]:
    """The suite's :class:`SweepRequest` list, with axis/override validation."""
    requests: List[SweepRequest] = []
    matched_axes = set()
    for name in names:
        spec = get_experiment(name)
        spec_axes = {axis.name for axis in spec.axes}
        matched_axes |= spec_axes & set(axes)
        requests.append(
            SweepRequest(
                spec=spec,
                config=config,
                axes={key: values for key, values in axes.items() if key in spec_axes} or None,
            )
        )
    for request in requests:
        spec = request.spec
        pinned = set(spec.overrides).union(*(variant.overrides for variant in spec.variants))
        shadowed = sorted(pinned & set(overrides))
        if shadowed:
            print(
                f"note: {spec.name} pins {', '.join(shadowed)} in its spec or variant "
                f"overrides; the command-line value(s) only apply where it does not set them"
            )
    unmatched = set(axes) - matched_axes
    if unmatched:
        known = sorted({axis.name for name in names for axis in get_experiment(name).axes})
        raise PlanError(
            f"--axis {'/'.join(sorted(unmatched))} matches no axis of the requested "
            f"experiment(s); available axes: {known}"
        )
    return requests


def _print_task_listing(
    requests: Sequence[SweepRequest], store: Optional[str], resume: bool
) -> int:
    """Render the flattened grid (what run would execute / submit would send)."""
    rows = task_listing(requests, store=store, resume=resume)
    cached = sum(1 for row in rows if row["cached"])
    print(f"{'task':<44} {'protocol':<12} {'seed':>10}  label")
    for row in rows:
        params = ", ".join(f"{k}={v}" for k, v in row["parameters"].items())
        marker = "  [cached]" if row["cached"] else ""
        print(
            f"{row['task']:<44} {row['protocol']:<12} {row['seed']:>10}  "
            f"{row['label']}" + (f" ({params})" if params else "") + marker
        )
    print(
        f"\n{len(rows)} task(s)"
        + (f", {cached} already satisfied by the store's task cache" if cached else "")
        + " — nothing executed (--dry-run)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.tag and not args.store:
        raise SystemExit("--tag requires --store (tags live on stored runs)")
    names = _resolve_names(args.experiments)
    config, overrides = _config_from_args(args)
    axes = _parse_axis_overrides(args.axis)
    requests = _build_requests(names, config, axes, overrides)
    if args.dry_run:
        return _print_task_listing(requests, args.store, resume=not args.no_resume)

    total = sum(
        request.spec.with_axes(request.axes).task_count(config) for request in requests
    )
    print(
        f"running {len(requests)} experiment(s), {total} tasks, "
        f"preset={args.preset}, workers={args.workers}"
        + (f", store={args.store}" if args.store else "")
    )

    def progress(what: str, done: int, task_total: int) -> None:
        if args.quiet:
            return
        print(f"  [{done:>4}/{task_total}] {what}", flush=True)

    results = run_suite(
        requests,
        workers=args.workers,
        store=args.store,
        tag=args.tag,
        resume=not args.no_resume,
        progress=progress,
    )
    for result in results:
        print()
        print(report_mod.to_text(result))
        if args.profile:
            profiles = [
                trial.profile
                for point in result.points
                for trial in point.trial_results
                if trial.profile
            ]
            if profiles:
                print()
                print(format_profile(merge_profiles(profiles), title=f"profile: {result.name}"))
    if args.store:
        store = ResultStore(args.store)
        print(f"\nstored under {args.store}/ (content-addressed; see 'store list'):")
        # Address each run by its own content key: latest() could name a
        # *different* run when this content was first stored earlier (saves
        # are idempotent and keep the original timestamp).
        for name, result in zip(names, results):
            record = store.resolve(f"{name}@{content_key(result)}")
            tags = f" tags={','.join(record.tags)}" if record.tags else ""
            print(f"  {name}@{record.key}{tags}")
    return 0


# ==================================================== results API commands
def _load_run(token: str, store_root: str):
    """Resolve a run reference: a JSON file path, else a store reference.

    Returns ``(result, record)``: a :class:`SweepResult` for full
    dumps/stored runs or the raw rows payload for row-based files (the
    committed ``BENCH_*.json``), plus the :class:`StoredRun` metadata
    record when the reference resolved through the store (``None`` for
    files).
    """
    path = pathlib.Path(token)
    if path.is_file():
        return report_mod.load_result(path), None
    if path.suffix == ".json" or "/" in token:
        raise SystemExit(f"result file {token} not found")
    store = ResultStore(store_root)
    try:
        record = store.resolve(token)
        return store.load(record), record
    except KeyError as exc:
        raise SystemExit(f"{exc.args[0]} (did you run with --store {store_root}?)")


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        pathlib.Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text)


def _meta_lines(record: StoredRun) -> List[str]:
    meta = record.meta
    registries = meta.get("registries") or {}
    pairs = [
        ("key", record.key),
        ("spec", record.spec),
        ("created", record.created),
        ("tags", ", ".join(record.tags) or "-"),
        ("points", meta.get("points")),
        ("trials (total)", meta.get("trials")),
        ("config hash", meta.get("config_hash", "-")),
        ("protocols", ", ".join(meta.get("protocols", [])) or "-"),
        (
            "registries",
            ", ".join(f"{key}={value}" for key, value in registries.items()) or "-",
        ),
    ]
    return [f"- **{key}**: {value}" for key, value in pairs]


def _select_rows(result: SweepResult, metrics: Sequence[str], level: str):
    result_set = ResultSet.from_sweep(result)
    if level == "trial":
        result_set = result_set.trials()
    return report_mod.tabulate(result_set, metrics)


def _rows_payload(result: object, fallback_name: str):
    """``(name, rows)`` for a row-based result: a payload dict or a bare list."""
    if isinstance(result, list):
        return fallback_name, result
    return result.get("name", fallback_name), result.get("points", [])


def _cmd_report(args: argparse.Namespace) -> int:
    result, record = _load_run(args.run, args.store)
    lines: List[str] = []
    if isinstance(result, SweepResult):
        lines.append(f"# {result.name}")
        lines.append("")
        if result.description:
            lines.extend([result.description, ""])
        if record is not None:
            lines.extend(_meta_lines(record))
            lines.append("")
        if args.metric:
            rows = _select_rows(result, args.metric, args.level)
        else:
            rows = result.rows()
    else:  # row-based payload (BENCH_*.json or a bare row list)
        if args.metric:
            raise SystemExit(
                "--metric needs a full SweepResult dump; row-based files "
                "(BENCH_*.json) only carry their archived columns"
            )
        name, rows = _rows_payload(result, args.run)
        lines.append(f"# {name}")
        lines.append("")
    lines.append(report_mod.rows_to_markdown(rows))
    _write_output("\n".join(lines), args.out)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    side_a, _ = _load_run(args.a, args.store)
    side_b, _ = _load_run(args.b, args.store)
    diff_report = report_mod.diff(
        side_a, side_b, tolerance=args.tolerance, trial_level=not args.no_trials
    )
    text = diff_report.to_markdown() if args.format == "md" else diff_report.summary()
    _write_output(text, args.out)
    return 1 if diff_report.verdict == report_mod.REGRESSED else 0


def _cmd_export(args: argparse.Namespace) -> int:
    result, _ = _load_run(args.run, args.store)
    if args.format == "gnuplot":
        if not isinstance(result, SweepResult):
            raise SystemExit("gnuplot export needs a full SweepResult dump")
        metric = args.metric[0] if args.metric else "download_time"
        text = report_mod.to_gnuplot(result, axis=args.axis, metric=metric)
    else:
        if isinstance(result, SweepResult):
            rows = (
                _select_rows(result, args.metric, args.level)
                if args.metric
                else result.rows()
            )
        else:
            _, rows = _rows_payload(result, args.run)
        if args.format == "csv":
            text = report_mod.rows_to_csv(rows).rstrip("\n")
        else:
            text = report_mod.rows_to_markdown(rows)
    _write_output(text, args.out)
    return 0


# ====================================================== cluster commands
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.cluster import Coordinator

    coordinator = Coordinator(
        store=args.store,
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        max_attempts=args.max_attempts,
        profile=args.profile,
        on_event=None if args.quiet else lambda text: print(text, flush=True),
    ).start()
    print(
        f"serving sweep tasks on {coordinator.endpoint} "
        f"(store={args.store}, lease_ttl={args.lease_ttl:g}s); "
        f"stop with 'repro-experiments stop --port {coordinator.port}' or Ctrl-C",
        flush=True,
    )
    try:
        while coordinator._server is not None:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.cluster import ClusterWorker, CoordinatorUnavailable

    worker = ClusterWorker(
        args.host,
        args.port,
        worker_id=args.id,
        poll_interval=args.poll_interval,
        exit_when_idle=args.exit_when_idle,
        max_tasks=args.max_tasks,
        on_event=None if args.quiet else lambda text: print(text, flush=True),
    )
    # SIGTERM drains gracefully: the current lease finishes and uploads, then
    # the loop exits.  An abrupt kill is what the coordinator's lease TTL is
    # for — the task re-dispatches to another worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: worker.request_drain())
    try:
        executed = worker.run()
    except CoordinatorUnavailable as exc:
        raise SystemExit(f"worker: {exc}")
    except KeyboardInterrupt:
        executed = worker.executed
    print(f"worker {worker.id}: {executed} task(s) executed, {worker.failed} failed")
    return 0


def _cluster_client(args: argparse.Namespace, retries: int = 5):
    from repro.cluster import ClusterClient

    return ClusterClient(args.host, args.port, retries=retries)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterError, build_submission_payload

    names = _resolve_names(args.experiments)
    config, overrides = _config_from_args(args)
    axes = _parse_axis_overrides(args.axis)
    requests = _build_requests(names, config, axes, overrides)
    if args.dry_run:
        return _print_task_listing(requests, None, resume=not args.no_resume)
    SweepGrid(requests)  # refuse a bad grid here, not after a round trip
    payload = build_submission_payload(
        names,
        config,
        {
            request.spec.name: dict(request.axes)
            for request in requests
            if request.axes
        },
        tag=args.tag,
        resume=not args.no_resume,
    )
    try:
        reply = _cluster_client(args).request("submit", **payload)
    except ClusterError as exc:
        raise SystemExit(f"submit: {exc}")
    print(
        f"submission {reply['submission']} accepted by {args.host}:{args.port}: "
        f"{reply['tasks']} task(s) queued, {reply['resumed']} resumed from the "
        f"store's task cache ({', '.join(reply['experiments'])})"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterError, render_status

    client = _cluster_client(args, retries=0)
    try:
        if args.watch:
            for snapshot in client.stream("status", watch=True, interval=args.interval):
                print(json.dumps(snapshot) if args.json else render_status(snapshot))
                print(flush=True)
            return 0
        snapshot = client.request("status")
        print(json.dumps(snapshot) if args.json else render_status(snapshot))
        return 0
    except ClusterError as exc:
        raise SystemExit(f"status: {exc}")


def _cmd_stop(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterError

    try:
        _cluster_client(args, retries=0).request("stop")
    except ClusterError as exc:
        raise SystemExit(f"stop: {exc}")
    print(f"coordinator at {args.host}:{args.port} stopping")
    return 0


def _cmd_store_list(args: argparse.Namespace) -> int:
    records = ResultStore(args.store).list(spec=args.spec, tag=args.tag)
    if not records:
        print(f"no stored runs under {args.store}/")
        return 0
    spec_width = max(len(record.spec) for record in records)
    print(f"{'spec':<{spec_width}}  {'key':<16}  {'created':<25}  tags")
    for record in records:
        print(
            f"{record.spec:<{spec_width}}  {record.key:<16}  "
            f"{record.created:<25}  {', '.join(record.tags) or '-'}"
        )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    removed = ResultStore(args.store).gc(
        keep=args.keep, spec=args.spec, keep_tagged=not args.prune_tagged
    )
    for record in removed:
        print(f"removed {record.spec}@{record.key}")
    print(f"{len(removed)} run(s) removed (kept {args.keep} most recent per spec)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="List and run the paper's experiments (declarative sweep registry).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Out-of-range numbers are refused at parse time: exit 2, one error line.
    seconds = _bounded(float, 0, inclusive=False)
    count = _bounded(int, 1)

    list_parser = sub.add_parser("list", help="list registered experiments")
    list_parser.add_argument(
        "--registries", action="store_true",
        help="also list the topology/protocol/propagation/churn/faults registries",
    )
    list_parser.set_defaults(func=_cmd_list)

    def add_config_flags(target: argparse.ArgumentParser) -> None:
        """Sweep-config flags shared by ``run`` and ``submit``."""
        target.add_argument(
            "experiments", nargs="+", metavar="EXPERIMENT",
            help="experiment names/aliases (fig9a ... table1), or 'all'",
        )
        target.add_argument("--preset", choices=("tiny", "small", "paper"), default="small",
                            help="scale preset (default: small)")
        target.add_argument("--trials", type=int, default=None, help="trials per sweep point")
        target.add_argument("--seed", type=int, default=None, help="base seed")
        target.add_argument("--topology", default=None,
                            help="registered topology name (quadrant, clusters, corridor, ...)")
        target.add_argument("--propagation", default=None,
                            help="registered propagation model (unit_disk, log_distance, obstacle)")
        target.add_argument("--churn", default=None,
                            help="registered churn model (none, poisson, flashcrowd, trace)")
        target.add_argument("--faults", default=None,
                            help="registered fault model (none, link_flap, partition, stall, degrade)")
        target.add_argument("--tag", default=None,
                            help="tag saved runs, e.g. --tag nightly")
        target.add_argument("--no-resume", action="store_true",
                            help="ignore previously persisted task results")
        target.add_argument("--axis", action="append", default=[], metavar="NAME=V1,V2",
                            help="override an axis, e.g. --axis wifi_range=40,80 (repeatable)")
        target.add_argument("--profile", action="store_true",
                            help="collect per-trial performance counters")
        target.add_argument("--dry-run", action="store_true",
                            help="print the flattened task grid (point/variant/trial x "
                                 "content-hash key) without executing anything")

    def add_cluster_flags(target: argparse.ArgumentParser) -> None:
        from repro.cluster import DEFAULT_HOST, DEFAULT_PORT

        target.add_argument("--host", default=DEFAULT_HOST,
                            help=f"coordinator host (default: {DEFAULT_HOST})")
        target.add_argument("--port", type=int, default=DEFAULT_PORT,
                            help=f"coordinator port (default: {DEFAULT_PORT})")

    run_parser = sub.add_parser("run", help="run one or more experiments (or 'all')")
    add_config_flags(run_parser)
    run_parser.add_argument("--workers", type=count, default=1,
                            help="process-pool size for the whole task grid (default: 1)")
    run_parser.add_argument("--store", default=None, metavar="DIR",
                            help="save aggregates into a content-addressed ResultStore under DIR "
                                 "(enables resume; see 'report'/'diff'/'export'/'store')")
    run_parser.add_argument("--quiet", action="store_true", help="suppress per-task progress lines")
    run_parser.set_defaults(func=_cmd_run)

    serve_parser = sub.add_parser(
        "serve", help="serve a sweep task grid to cluster workers (coordinator)"
    )
    add_cluster_flags(serve_parser)
    serve_parser.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                              help=f"shared ResultStore root (default: {DEFAULT_STORE})")
    serve_parser.add_argument("--lease-ttl", type=seconds, default=15.0,
                              help="seconds without a heartbeat before a lease expires "
                                   "and its task re-dispatches (default: 15)")
    serve_parser.add_argument("--heartbeat-interval", type=seconds, default=3.0,
                              help="heartbeat cadence advertised to workers (default: 3)")
    serve_parser.add_argument("--max-attempts", type=count, default=5,
                              help="attempts before a task is poisoned and its "
                                   "submission fails (default: 5)")
    serve_parser.add_argument("--profile", action="store_true",
                              help="record cluster.* counters in stored run metadata")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-event log lines")
    serve_parser.set_defaults(func=_cmd_serve)

    worker_parser = sub.add_parser(
        "worker", help="claim and execute tasks from a coordinator (worker loop)"
    )
    add_cluster_flags(worker_parser)
    worker_parser.add_argument("--id", default=None,
                               help="worker id (default: <hostname>-<pid>)")
    worker_parser.add_argument("--poll-interval", type=seconds, default=0.5,
                               help="idle poll cadence in seconds (default: 0.5)")
    worker_parser.add_argument("--exit-when-idle", action="store_true",
                               help="exit once the coordinator has no live work "
                                    "(CI smoke runs)")
    worker_parser.add_argument("--max-tasks", type=count, default=None,
                               help="exit after executing this many tasks")
    worker_parser.add_argument("--quiet", action="store_true",
                               help="suppress per-task log lines")
    worker_parser.set_defaults(func=_cmd_worker)

    submit_parser = sub.add_parser(
        "submit", help="submit experiments to a running coordinator"
    )
    add_config_flags(submit_parser)
    add_cluster_flags(submit_parser)
    submit_parser.set_defaults(func=_cmd_submit)

    status_parser = sub.add_parser(
        "status", help="show a coordinator's per-task progress and worker table"
    )
    add_cluster_flags(status_parser)
    status_parser.add_argument("--watch", action="store_true",
                               help="stream snapshots until all work settles")
    status_parser.add_argument("--interval", type=seconds, default=2.0,
                               help="snapshot cadence with --watch (default: 2)")
    status_parser.add_argument("--json", action="store_true",
                               help="print raw JSON snapshots instead of the table")
    status_parser.set_defaults(func=_cmd_status)

    stop_parser = sub.add_parser("stop", help="stop a running coordinator")
    add_cluster_flags(stop_parser)
    stop_parser.set_defaults(func=_cmd_stop)

    run_ref_help = (
        "stored run reference (SPEC, SPEC@latest, SPEC@TAG, SPEC@KEY or a bare key) "
        "or a persisted JSON file path"
    )

    report_parser = sub.add_parser("report", help="render a stored run as a Markdown report")
    report_parser.add_argument("run", metavar="RUN", help=run_ref_help)
    report_parser.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                               help=f"ResultStore root (default: {DEFAULT_STORE})")
    report_parser.add_argument("--metric", action="append", default=[], metavar="NAME",
                               help="select metrics (any scalar field, extras.<key> or "
                                    "profile.<key>; repeatable; default: the archived row columns)")
    report_parser.add_argument("--level", choices=("point", "trial"), default="point",
                               help="query level for --metric (default: point)")
    report_parser.add_argument("-o", "--out", default=None, metavar="FILE",
                               help="write to FILE instead of stdout")
    report_parser.set_defaults(func=_cmd_report)

    diff_parser = sub.add_parser(
        "diff", help="three-way field-by-field comparison of two runs (exit 1 on regression)"
    )
    diff_parser.add_argument("a", metavar="RUN_A", help=run_ref_help)
    diff_parser.add_argument("b", metavar="RUN_B", help=run_ref_help)
    diff_parser.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                             help=f"ResultStore root (default: {DEFAULT_STORE})")
    diff_parser.add_argument("--tolerance", type=float, default=0.0,
                             help="relative tolerance below which differences pass (default: 0 = identical)")
    diff_parser.add_argument("--no-trials", action="store_true",
                             help="compare aggregates only, not per-trial results")
    diff_parser.add_argument("--format", choices=("text", "md"), default="text",
                             help="output format (default: text)")
    diff_parser.add_argument("-o", "--out", default=None, metavar="FILE",
                             help="write to FILE instead of stdout")
    diff_parser.set_defaults(func=_cmd_diff)

    export_parser = sub.add_parser("export", help="export a run as CSV, Markdown or gnuplot columns")
    export_parser.add_argument("run", metavar="RUN", help=run_ref_help)
    export_parser.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                               help=f"ResultStore root (default: {DEFAULT_STORE})")
    export_parser.add_argument("--format", choices=("csv", "md", "gnuplot"), default="csv",
                               help="output format (default: csv)")
    export_parser.add_argument("--metric", action="append", default=[], metavar="NAME",
                               help="metrics to export (repeatable; gnuplot uses the first; "
                                    "default: archived row columns / download_time)")
    export_parser.add_argument("--axis", default=None,
                               help="gnuplot x-axis parameter (default: first varying parameter)")
    export_parser.add_argument("--level", choices=("point", "trial"), default="point",
                               help="query level for --metric (default: point)")
    export_parser.add_argument("-o", "--out", default=None, metavar="FILE",
                               help="write to FILE instead of stdout")
    export_parser.set_defaults(func=_cmd_export)

    store_parser = sub.add_parser("store", help="inspect and maintain a ResultStore")
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    store_list = store_sub.add_parser("list", help="list stored runs (newest first)")
    store_list.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                            help=f"ResultStore root (default: {DEFAULT_STORE})")
    store_list.add_argument("--spec", default=None, help="only this experiment")
    store_list.add_argument("--tag", default=None, help="only runs carrying this tag")
    store_list.set_defaults(func=_cmd_store_list)
    store_gc = store_sub.add_parser("gc", help="delete old untagged runs")
    store_gc.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                          help=f"ResultStore root (default: {DEFAULT_STORE})")
    store_gc.add_argument("--keep", type=_bounded(int, 0), default=3,
                          help="runs to keep per spec (default: 3)")
    store_gc.add_argument("--spec", default=None, help="only this experiment")
    store_gc.add_argument("--prune-tagged", action="store_true",
                          help="also delete tagged runs (default: tagged runs are kept)")
    store_gc.set_defaults(func=_cmd_store_gc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanError as exc:
        # The grid was refused before anything ran: the usage text is not the
        # problem, so print argparse's error line without it.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
