"""The sweep coordinator: flatten submissions, lease tasks, merge results.

A :class:`Coordinator` owns the full distributed-sweep control plane:

* **Submission intake** — a ``submit`` message carries one or more
  ``{experiment, config, axes}`` requests (JSON-native: the config crosses
  the wire as :meth:`ExperimentConfig.as_dict` output).  The coordinator
  flattens them through the *same* planner the in-process scheduler uses
  (:func:`repro.experiments.sweep._prepare`), so the task grid — and every
  content-hash key — is identical to what ``run_suite`` would execute.
* **Resume** — tasks already satisfied by the shared
  :class:`~repro.experiments.store.TaskCache` are folded in immediately;
  a cluster run can resume a serial run, a pool run, or a previous cluster
  run from the same store, and vice versa.
* **Dispatch** — workers claim leases (:mod:`repro.cluster.leases`),
  heartbeat while executing, and upload ``RunResult`` JSON.  Expired leases
  re-dispatch (at-least-once; first-completed-wins is a no-op by
  idempotence), worker-reported failures back off exponentially, and
  attempt-exhausted tasks poison their submission loudly.
* **Merge** — accepted results are written through the TaskCache
  (atomically — concurrent writers cannot tear JSON) and, when a
  submission's grid completes, aggregated in plan order by the *same*
  aggregation path as ``run_suite`` and saved to the :class:`ResultStore`
  with cluster provenance (worker ids, attempts, lease history) in the run
  metadata.  Aggregates are therefore byte-identical to serial and pool
  runs by construction.
* **Status** — a ``status`` message returns one JSON snapshot (or a stream
  of them with ``watch``): per-task progress counts, per-submission
  events/sec, the worker table, and the gated ``cluster.*`` profiling
  counters.

The server is a stdlib ``socketserver.ThreadingTCPServer`` speaking
newline-delimited JSON (:mod:`repro.cluster.protocol`); all shared state is
behind one lock plus the :class:`LeaseTable`'s own.  Time comes from an
injectable ``clock`` so failure-detection tests run deterministically.
"""

from __future__ import annotations

import socketserver
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cluster import leases as leases_mod
from repro.cluster.errors import ProtocolError
from repro.cluster.leases import DONE, FAILED, LEASED, PENDING, ClusterTask, LeaseTable
from repro.cluster.protocol import (
    DEFAULT_HOST,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
)
from repro.experiments import sweep as sweep_mod
from repro.experiments.metrics import RunResult
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.spec import get_experiment
from repro.experiments.store import ResultStore
from repro.experiments.sweep import SweepRequest

__all__ = ["Coordinator", "build_submission_payload"]


def build_submission_payload(
    experiments: Sequence[str],
    config: ExperimentConfig,
    axes_by_spec: Optional[Dict[str, Dict[str, Sequence[object]]]] = None,
    *,
    tag: Optional[str] = None,
    resume: bool = True,
) -> Dict[str, object]:
    """The JSON-native ``submit`` payload for a list of registered specs.

    Shared by the ``repro-experiments submit`` CLI and in-process tests so
    both send exactly the grid ``run --dry-run`` lists.
    """
    requests: List[Dict[str, object]] = []
    for name in experiments:
        axes = (axes_by_spec or {}).get(name)
        requests.append(
            {
                "experiment": name,
                "config": config.as_dict(),
                "axes": {key: list(values) for key, values in axes.items()} if axes else None,
            }
        )
    return {"requests": requests, "tag": tag, "resume": resume}


class _Submission:
    """One accepted submit: its prepared plans, live counters and outcome."""

    def __init__(self, sid: str, prepared, tag: Optional[str], started: float):
        self.id = sid
        self.prepared = prepared  # List[sweep._PreparedRequest]
        self.tag = tag
        self.started = started
        self.finished: Optional[float] = None
        self.state = "running"  # running | done | failed
        self.task_keys: List[str] = []
        self.resumed = 0
        self.events = 0
        self.errors: List[str] = []
        self.stored: List[Dict[str, object]] = []

    @property
    def experiments(self) -> List[str]:
        return [item.spec.name for item in self.prepared]


class _WorkerInfo:
    def __init__(self, last_seen: float):
        self.last_seen = last_seen
        self.state = "active"  # active | draining | gone
        self.done = 0
        self.failed = 0


class Coordinator:
    """Serve a sweep task grid to remote workers over the cluster protocol."""

    def __init__(
        self,
        store: Union[ResultStore, str, Path] = "results-store",
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        lease_ttl: float = 15.0,
        heartbeat_interval: float = 3.0,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        profile: bool = False,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.host = host
        self.port = port
        self.clock = clock
        self.profile = profile
        self.heartbeat_interval = heartbeat_interval
        self.lease_ttl = lease_ttl
        self.table = LeaseTable(
            clock=clock,
            lease_ttl=lease_ttl,
            heartbeat_interval=heartbeat_interval,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
        )
        self._on_event = on_event
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._submissions: Dict[str, _Submission] = {}
        self._workers: Dict[str, _WorkerInfo] = {}
        self._server: Optional[socketserver.ThreadingTCPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_wall = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self._started_clock = clock()

    # ----------------------------------------------------------------- server
    def start(self) -> "Coordinator":
        """Bind and serve in a daemon thread; ``port=0`` picks a free port."""
        coordinator = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # one connection: request lines until EOF
                for line in self.rfile:
                    try:
                        message = decode_message(line)
                    except ProtocolError as exc:
                        self._reply({"ok": False, "error": str(exc)})
                        return
                    if message.get("op") == "status" and message.get("watch"):
                        coordinator._stream_status(message, self._reply)
                        return
                    reply = coordinator.handle(message)
                    self._reply(reply)
                    if message.get("op") == "stop":
                        return

            def _reply(self, payload: Dict[str, object]) -> bool:
                try:
                    self.wfile.write(encode_message(payload))
                    self.wfile.flush()
                    return True
                except (OSError, ValueError):
                    return False  # client went away mid-reply

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="cluster-coordinator", daemon=True
        )
        self._thread.start()
        self._log(f"coordinator listening on {self.host}:{self.port}")
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _log(self, text: str) -> None:
        if self._on_event is not None:
            self._on_event(text)

    # --------------------------------------------------------------- dispatch
    _OPS = (
        "submit", "register", "claim", "heartbeat", "result",
        "fail", "status", "drain", "goodbye", "stop",
    )

    def handle(self, message: Dict[str, object]) -> Dict[str, object]:
        """Process one request message and return the reply (also in-process)."""
        proto = message.get("proto", PROTOCOL_VERSION)
        if proto != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": f"protocol version {proto!r} not supported "
                         f"(coordinator speaks {PROTOCOL_VERSION})",
            }
        op = message.get("op")
        if op not in self._OPS:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return getattr(self, f"_op_{op}")(message)
        except Exception as exc:  # never tear down the server on one bad request
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # ----------------------------------------------------------------- submit
    def submit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Accept one submission payload (see :func:`build_submission_payload`)."""
        raw_requests = payload.get("requests")
        if not raw_requests or not isinstance(raw_requests, list):
            raise ValueError("submission carries no requests")
        requests: List[SweepRequest] = []
        for raw in raw_requests:
            spec = get_experiment(str(raw["experiment"]))
            config = ExperimentConfig.from_dict(dict(raw["config"]))
            axes = raw.get("axes") or None
            if axes is not None:
                axes = {key: tuple(values) for key, values in axes.items()}
            requests.append(SweepRequest(spec=spec, config=config, axes=axes))
        resume = bool(payload.get("resume", True))
        tag = payload.get("tag") or None

        prepared = sweep_mod._prepare(requests, None, self.store)
        with self._lock:
            sid = f"s{len(self._submissions) + 1}"
            submission = _Submission(sid, prepared, tag, self.clock())
            new_tasks: List[ClusterTask] = []
            for index, item in enumerate(prepared):
                for plan in item.plans:
                    for trial, seed in enumerate(plan.seeds):
                        cached = (
                            item.cache.load(plan.index, trial, seed) if resume else None
                        )
                        if cached is not None:
                            item.results[(plan.index, trial)] = cached
                            submission.resumed += 1
                            continue
                        key = leases_mod.task_id(
                            item.spec.name, item.cache_key, plan.index, trial
                        )
                        if self.table.get(key) is not None:
                            raise ValueError(
                                f"task {key} is already in flight from an earlier "
                                f"submission; wait for it to finish (its result will "
                                f"resume this grid from the shared store)"
                            )
                        new_tasks.append(
                            ClusterTask(
                                key=key,
                                submission=sid,
                                request=index,
                                experiment=item.spec.name,
                                point=plan.index,
                                trial=trial,
                                seed=seed,
                                payload={
                                    "key": key,
                                    "submission": sid,
                                    "experiment": item.spec.name,
                                    "plan_key": item.cache_key,
                                    "point": plan.index,
                                    "trial": trial,
                                    "label": plan.label,
                                    "protocol": plan.protocol,
                                    "seed": seed,
                                    "parameters": dict(plan.parameters),
                                    "config": plan.config.as_dict(),
                                },
                            )
                        )
            for task in new_tasks:
                self.table.add(task)
                submission.task_keys.append(task.key)
            self._submissions[sid] = submission
            self._log(
                f"submission {sid}: {', '.join(submission.experiments)} — "
                f"{len(new_tasks)} task(s), {submission.resumed} resumed from cache"
            )
            if not new_tasks:
                self._finalize(submission)
            return {
                "submission": sid,
                "tasks": len(new_tasks),
                "resumed": submission.resumed,
                "experiments": submission.experiments,
            }

    def _op_submit(self, message: Dict[str, object]) -> Dict[str, object]:
        try:
            info = self.submit(message)
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, **info}

    # ----------------------------------------------------------------- workers
    def _touch_worker(self, worker: str) -> _WorkerInfo:
        info = self._workers.get(worker)
        if info is None:
            info = self._workers[worker] = _WorkerInfo(self.clock())
        else:
            info.last_seen = self.clock()
            if info.state == "gone":  # a re-registering worker comes back
                info.state = "active"
        return info

    def _op_register(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        if not worker:
            return {"ok": False, "error": "register needs a worker id"}
        with self._lock:
            self._touch_worker(worker).state = "active"
        self._log(f"worker {worker} registered")
        return {
            "ok": True,
            "heartbeat_interval": self.heartbeat_interval,
            "lease_ttl": self.lease_ttl,
        }

    def _op_claim(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        with self._lock:
            info = self._touch_worker(worker)
            if info.state == "draining":
                return {"ok": True, "task": None, "drain": True}
        task, claim_info = self.table.claim(worker)
        with self._lock:
            # claim()'s lazy expiry may have poisoned a submission's last
            # straggler; settle it now so waiters and watchers see the end.
            self._check_all_done()
        if task is None:
            active = bool(claim_info["pending"] or claim_info["leased"])
            reply = {"ok": True, "task": None, "active": active, **claim_info}
            return reply
        payload = dict(task.payload)
        payload["lease"] = claim_info["lease"]
        payload["attempt"] = claim_info["attempt"]
        if task.attempts > 1:
            self._log(
                f"task {task.key} re-dispatched to {worker} "
                f"(attempt {task.attempts})"
            )
        return {"ok": True, "task": payload}

    def _op_heartbeat(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        lease = str(message.get("lease") or "")
        with self._lock:
            self._touch_worker(worker)
        alive = self.table.heartbeat(worker, lease)
        return {"ok": True, "lease_alive": alive}

    def _op_result(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        key = str(message.get("task") or "")
        task = self.table.get(key)
        if task is None:
            return {"ok": False, "error": f"unknown task {key!r}"}
        if message.get("seed") != task.seed:
            return {
                "ok": False,
                "error": f"seed mismatch for {key}: expected {task.seed}, "
                         f"got {message.get('seed')!r}",
            }
        try:
            result = RunResult.from_dict(dict(message["result"]))
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"unparseable result for {key}: {exc}"}
        with self._lock:
            # Marking the task done and storing its result are one step: a
            # concurrent upload that sees the grid complete finalizes it, and
            # must find every result in place.
            task, accepted = self.table.complete(key, worker)
            info = self._touch_worker(worker)
            if accepted:
                info.done += 1
                submission = self._submissions[task.submission]
                item = submission.prepared[task.request]
                item.results[(task.point, task.trial)] = result
                if item.cache is not None:
                    item.cache.store(task.experiment, task.point, task.trial, task.seed, result)
                submission.events += result.events
            self._check_all_done()
        return {"ok": True, "accepted": accepted}

    def _op_fail(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        key = str(message.get("task") or "")
        error = str(message.get("error") or "worker reported failure")
        task, info = self.table.fail(key, worker, error)
        if task is None:
            return {"ok": False, "error": f"unknown task {key!r}"}
        with self._lock:
            self._touch_worker(worker).failed += 1
            self._check_all_done()
        self._log(f"task {key} failed on {worker}: {error}")
        return {"ok": True, **info}

    def _op_drain(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        with self._lock:
            info = self._workers.get(worker)
            if info is None:
                return {"ok": False, "error": f"unknown worker {worker!r}"}
            info.state = "draining"
        self._log(f"worker {worker} draining (finishes its current lease, then exits)")
        return {"ok": True}

    def _op_goodbye(self, message: Dict[str, object]) -> Dict[str, object]:
        worker = str(message.get("worker") or "")
        with self._lock:
            info = self._workers.get(worker)
            if info is not None:
                info.state = "gone"
                info.last_seen = self.clock()
        self._log(f"worker {worker} left")
        return {"ok": True}

    def _op_stop(self, message: Dict[str, object]) -> Dict[str, object]:
        if self._server is not None:
            threading.Thread(target=self.stop, daemon=True).start()
        self._log("coordinator stopping")
        return {"ok": True, "stopping": True}

    # ----------------------------------------------------------------- status
    def _op_status(self, message: Dict[str, object]) -> Dict[str, object]:
        return {"ok": True, **self.status()}

    def status(self) -> Dict[str, object]:
        """One JSON-native snapshot of the whole cluster's progress."""
        self.table.expire_stale()
        with self._lock:
            self._check_all_done()
            now = self.clock()
            counts = self.table.counts()
            submissions = []
            total_events = 0
            for submission in self._submissions.values():
                sub_counts = self.table.counts(submission.id)
                elapsed = (submission.finished or now) - submission.started
                submissions.append(
                    {
                        "id": submission.id,
                        "state": submission.state,
                        "experiments": submission.experiments,
                        "tasks": sub_counts,
                        "resumed": submission.resumed,
                        "events": submission.events,
                        "events_per_sec": (
                            submission.events / elapsed if elapsed > 0 else 0.0
                        ),
                        "stored": list(submission.stored),
                        "errors": list(submission.errors),
                    }
                )
                total_events += submission.events
            workers = []
            for name, info in sorted(self._workers.items()):
                age = now - info.last_seen
                state = info.state
                if state == "active" and age > self.lease_ttl:
                    state = "lost"  # missed enough heartbeats to expire a lease
                workers.append(
                    {
                        "id": name,
                        "state": state,
                        "last_seen_s": age,
                        "done": info.done,
                        "failed": info.failed,
                    }
                )
            elapsed_total = now - self._started_clock
            return {
                "coordinator": self.endpoint,
                "started": self._started_wall,
                "uptime_s": elapsed_total,
                "tasks": counts,
                "events": total_events,
                "events_per_sec": (
                    total_events / elapsed_total if elapsed_total > 0 else 0.0
                ),
                "submissions": submissions,
                "workers": workers,
                "profile": self.table.profile(),
            }

    def _stream_status(self, message: Dict[str, object], reply) -> None:
        """Emit one snapshot per interval until all work settles (or EOF)."""
        interval = float(message.get("interval", 2.0) or 2.0)
        while True:
            snapshot = self.status()
            if not reply({"ok": True, **snapshot}):
                return
            counts = snapshot["tasks"]
            live = counts[PENDING] + counts[LEASED]
            if not live and snapshot["submissions"]:
                return  # everything settled: end the stream so watchers exit
            if self._server is None:
                return
            time.sleep(min(interval, 30.0))

    # ------------------------------------------------------------- completion
    def _check_all_done(self) -> None:
        for submission in self._submissions.values():
            if submission.state != "running":
                continue
            counts = self.table.counts(submission.id)
            if counts[PENDING] or counts[LEASED]:
                continue
            self._finalize(submission)

    def _finalize(self, submission: _Submission) -> None:
        submission.finished = self.clock()
        failed = [
            task
            for key in submission.task_keys
            for task in (self.table.get(key),)
            if task is not None and task.state == FAILED
        ]
        if failed:
            submission.state = "failed"
            submission.errors = [
                f"{task.key}: {task.error} (after {task.attempts} attempt(s))"
                for task in failed
            ]
            self._log(
                f"submission {submission.id} FAILED: {len(failed)} poisoned task(s)"
            )
            self._done.notify_all()
            return
        for index, item in enumerate(submission.prepared):
            sweep = sweep_mod._aggregate(item)
            record = self.store.save(
                sweep,
                spec=item.spec,
                config=item.base,
                tags=(submission.tag,) if submission.tag else (),
                extra={"cluster": self._provenance(submission, index)},
            )
            submission.stored.append(
                {"spec": record.spec, "key": record.key, "tags": record.tags}
            )
        submission.state = "done"
        self._log(
            f"submission {submission.id} done: "
            + ", ".join(f"{ref['spec']}@{ref['key']}" for ref in submission.stored)
        )
        self._done.notify_all()

    def _provenance(self, submission: _Submission, index: int) -> Dict[str, object]:
        """Cluster provenance for one stored run's metadata header."""
        tasks = [
            task
            for key in submission.task_keys
            for task in (self.table.get(key),)
            if task is not None and task.request == index
        ]
        workers = sorted(
            {
                record.worker
                for task in tasks
                for record in task.history
                if record.outcome == "completed"
            }
        )
        provenance: Dict[str, object] = {
            "coordinator": self.endpoint,
            "submission": submission.id,
            "workers": workers,
            "executed": len(tasks),
            "resumed": submission.resumed,
            "attempts": {task.key: task.attempts for task in tasks if task.attempts > 1},
            "lease_history": {
                task.key: [
                    {
                        "worker": record.worker,
                        "attempt": record.attempt,
                        "outcome": record.outcome,
                    }
                    for record in task.history
                ]
                for task in tasks
                if len(task.history) > 1
            },
        }
        if self.profile:
            provenance["profile"] = self.table.profile()
        return provenance

    # ------------------------------------------------------------------ tests
    def wait(self, timeout: float = 60.0) -> bool:
        """Block until every submission settles; ``True`` when all settled."""
        deadline = time.monotonic() + timeout
        with self._done:
            while any(s.state == "running" for s in self._submissions.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._done.wait(timeout=min(remaining, 0.25))
        return True
