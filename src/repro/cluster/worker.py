"""The cluster worker: claim leases, execute trials, upload results.

A :class:`ClusterWorker` is a thin loop around the *existing* trial
execution path: every claimed task is parsed back into the scheduler's own
:class:`~repro.experiments.sweep.SweepTask` by
:meth:`~repro.experiments.sweep.SweepTask.from_wire` (config via
``ExperimentConfig.from_dict``; the task names its protocol, seed and
parameters, so nothing is pickled over the wire) and run.  A cluster
worker therefore computes bit-for-bit the same ``RunResult`` a serial or
pool run would for the same content-hash task key, which is what makes the
coordinator's first-completed-wins merging safe.

While a task executes, a daemon thread heartbeats the lease at the
coordinator's advertised interval; if the coordinator reports the lease
dead (the worker was presumed lost and the task re-dispatched), the worker
finishes and uploads anyway — idempotence makes the late upload a no-op.
Failures inside a trial are reported with ``fail`` so the coordinator can
back off and eventually poison the task instead of leasing it forever.

Draining is cooperative: ``request_drain()`` (wired to SIGTERM in the CLI)
lets the current task finish and then exits the loop; an abrupt kill is the
case the lease TTL exists for.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from typing import Callable, Dict, Optional

from repro.cluster.errors import ClusterError, CoordinatorUnavailable
from repro.cluster.protocol import DEFAULT_HOST, DEFAULT_PORT, ClusterClient
from repro.experiments.sweep import SweepTask

__all__ = ["ClusterWorker", "default_worker_id"]


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per process, readable in the worker table."""
    return f"{socket.gethostname()}-{os.getpid()}"


class ClusterWorker:
    """Claim/execute/upload loop against one coordinator.

    ``exit_when_idle`` ends the loop the first time the coordinator has no
    live work at all (CI smoke runs); otherwise the worker polls until
    drained or stopped.  ``max_tasks`` bounds how many tasks this worker
    will execute (tests use 1 to interleave workers deterministically).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        worker_id: Optional[str] = None,
        *,
        poll_interval: float = 0.5,
        exit_when_idle: bool = False,
        max_tasks: Optional[int] = None,
        client: Optional[ClusterClient] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        self.id = worker_id or default_worker_id()
        self.client = client or ClusterClient(host, port, retries=5)
        self.poll_interval = poll_interval
        self.exit_when_idle = exit_when_idle
        self.max_tasks = max_tasks
        self.heartbeat_interval = 3.0
        self.executed = 0
        self.failed = 0
        self._on_event = on_event
        self._stop = threading.Event()
        self._drain = threading.Event()

    def _log(self, text: str) -> None:
        if self._on_event is not None:
            self._on_event(text)

    # ------------------------------------------------------------- lifecycle
    def request_drain(self) -> None:
        """Finish the current task (if any), then leave the claim loop."""
        self._drain.set()

    def stop(self) -> None:
        """Leave the claim loop as soon as the current task finishes."""
        self._drain.set()
        self._stop.set()

    # ------------------------------------------------------------------ loop
    def run(self) -> int:
        """Register and serve until drained/stopped; returns tasks executed."""
        hello = self.client.request("register", worker=self.id)
        self.heartbeat_interval = float(
            hello.get("heartbeat_interval", self.heartbeat_interval)
        )
        self._log(f"worker {self.id} serving {self.client.endpoint}")
        try:
            while not self._drain.is_set():
                if self.max_tasks is not None and self.executed >= self.max_tasks:
                    break
                reply = self.client.request("claim", worker=self.id)
                task = reply.get("task")
                if task is None:
                    if reply.get("drain"):
                        self._log(f"worker {self.id} drained by coordinator")
                        break
                    if not reply.get("active") and self.exit_when_idle:
                        break
                    wait = float(reply.get("retry_after", self.poll_interval) or 0.0)
                    if self._drain.wait(timeout=max(wait, self.poll_interval)):
                        break
                    continue
                self._execute(task)
        finally:
            try:
                self.client.request("goodbye", worker=self.id, check=False)
            except ClusterError:
                pass  # coordinator already gone; nothing to say goodbye to
        return self.executed

    # --------------------------------------------------------------- execute
    def _execute(self, payload: Dict[str, object]) -> None:
        key = str(payload["key"])
        lease = str(payload["lease"])
        beat_stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, beat_stop),
            name=f"heartbeat-{self.id}",
            daemon=True,
        )
        beater.start()
        try:
            result = SweepTask.from_wire(payload).run()
        except Exception as exc:
            beat_stop.set()
            beater.join(timeout=self.heartbeat_interval * 2)
            self.failed += 1
            self._log(f"worker {self.id}: task {key} raised {exc!r}")
            try:
                self.client.request(
                    "fail",
                    worker=self.id,
                    lease=lease,
                    task=key,
                    error=f"{type(exc).__name__}: {exc}\n"
                    + "".join(traceback.format_exception_only(type(exc), exc)).strip(),
                    check=False,
                )
            except ClusterError:
                pass
            return
        beat_stop.set()
        beater.join(timeout=self.heartbeat_interval * 2)
        reply = self.client.request(
            "result",
            worker=self.id,
            lease=lease,
            task=key,
            seed=payload["seed"],
            result=result.to_dict(),
        )
        self.executed += 1
        verb = "uploaded" if reply.get("accepted") else "uploaded (redundant)"
        self._log(f"worker {self.id}: task {key} {verb}")

    def _heartbeat_loop(self, lease: str, stop: threading.Event) -> None:
        while not stop.wait(timeout=self.heartbeat_interval):
            try:
                reply = self.client.request(
                    "heartbeat", worker=self.id, lease=lease, check=False
                )
            except CoordinatorUnavailable:
                continue  # keep executing; the retrying client may reconnect
            if not reply.get("lease_alive", True):
                # Lease reclaimed (we were presumed dead).  Finish anyway:
                # the upload is a harmless no-op if a twin beat us to it.
                self._log(
                    f"worker {self.id}: lease {lease} reclaimed by coordinator; "
                    f"finishing the task regardless (idempotent upload)"
                )
                return
