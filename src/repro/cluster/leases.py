"""Lease bookkeeping: the coordinator's at-least-once dispatch state machine.

Every schedulable unit is one :class:`ClusterTask` — one
:class:`~repro.experiments.sweep.SweepTask` of a submission's grid, keyed by
its content-hash task key, the name of its
:class:`~repro.experiments.store.TaskCache` file on disk
(:meth:`~repro.experiments.store.TaskCache.key`).  Because that key is a
pure function of the plan content, re-executing a task is always safe:
whichever worker uploads first wins and every later upload of the same key
is a no-op.  That idempotence is what lets the :class:`LeaseTable`
re-dispatch aggressively over unreliable connections (the classic
at-least-once regime) without ever corrupting an aggregate.

State machine per task::

    PENDING --claim--> LEASED --result--> DONE
       ^                  |
       |                  +--lease expiry (missed heartbeats)--+
       |                  +--worker-reported failure-----------+
       |                                                       |
       +---- re-dispatch (attempts < max, capped backoff) -----+
                                                               |
              FAILED (poisoned: attempts exhausted) <----------+

Failure detection is heartbeat-based: a lease's deadline is pushed to
``now + lease_ttl`` on every heartbeat, and :meth:`LeaseTable.expire_stale`
(run lazily before every claim and status snapshot — no reaper thread)
returns expired leases to PENDING.  Worker-reported failures re-dispatch
with capped exponential backoff (``backoff_base * 2**(attempts-1)``, capped
at ``backoff_cap``) so a poison task cannot hot-loop the cluster; once
``max_attempts`` is spent the task is FAILED and its submission reports the
error instead of aggregating silently-partial results.

All mutating methods take an internal lock — the coordinator serves each
connection from its own thread.  Time comes from an injectable ``clock`` so
tests drive expiry deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.sweep import SweepTask

__all__ = [
    "DONE",
    "FAILED",
    "LEASED",
    "PENDING",
    "ClusterTask",
    "Lease",
    "LeaseRecord",
    "LeaseTable",
]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"


@dataclass
class Lease:
    """One grant of one task to one worker, alive while heartbeats arrive."""

    id: str
    task_key: str
    worker: str
    granted_at: float
    deadline: float
    last_heartbeat: float


@dataclass
class LeaseRecord:
    """One row of a task's lease history (provenance for run metadata)."""

    worker: str
    attempt: int
    granted_at: float
    outcome: Optional[str] = None  # completed | expired | failed | redundant


@dataclass
class ClusterTask:
    """One grid task of one submission, with its lease state."""

    submission: str
    work: SweepTask
    state: str = PENDING
    attempts: int = 0
    not_before: float = 0.0
    error: Optional[str] = None
    lease: Optional[Lease] = None
    history: List[LeaseRecord] = field(default_factory=list)

    @property
    def key(self) -> str:
        return self.work.key


class LeaseTable:
    """Thread-safe claim/heartbeat/complete/fail bookkeeping for all tasks."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        lease_ttl: float = 15.0,
        heartbeat_interval: float = 3.0,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
    ):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.clock = clock
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._lock = threading.RLock()
        self._tasks: Dict[str, ClusterTask] = {}
        self._order: List[str] = []
        self._leases: Dict[str, Lease] = {}
        self._sequence = 0
        # ------------------------------------------------- profiling counters
        #: Leases granted (cluster.leases).
        self.leases_granted = 0
        #: Leases reclaimed after missed heartbeats (cluster.expired_leases).
        self.expired_leases = 0
        #: Tasks returned to PENDING for another attempt (cluster.redispatches).
        self.redispatches = 0
        #: Heartbeat intervals that elapsed unanswered before an expiry
        #: (cluster.heartbeats_missed).
        self.heartbeats_missed = 0
        #: Heartbeats accepted (cluster.heartbeats).
        self.heartbeats = 0
        #: Uploads for already-completed tasks, ignored by idempotence
        #: (cluster.redundant_results).
        self.redundant_results = 0

    # ---------------------------------------------------------------- intake
    def add(self, *tasks: ClusterTask) -> None:
        """Add every task or none: one known or repeated key refuses them all."""
        with self._lock:
            seen = set()
            for task in tasks:
                if task.key in self._tasks:
                    raise ValueError(
                        f"task {task.key} is already in flight from an earlier "
                        f"submission; wait for it to finish (its result will resume "
                        f"this grid from the shared store)"
                    )
                if task.key in seen:
                    raise ValueError(f"duplicate task key {task.key!r} within one submission")
                seen.add(task.key)
            for task in tasks:
                self._tasks[task.key] = task
                self._order.append(task.key)

    def get(self, key: str) -> Optional[ClusterTask]:
        with self._lock:
            return self._tasks.get(key)

    def tasks(self) -> List[ClusterTask]:
        with self._lock:
            return [self._tasks[key] for key in self._order]

    # ---------------------------------------------------------------- expiry
    def expire_stale(self) -> List[ClusterTask]:
        """Reclaim every lease whose deadline passed; return the tasks.

        Called lazily before claims and status snapshots (no background
        thread, no wall-clock nondeterminism in tests).  An expired task
        re-dispatches immediately — at-least-once delivery — unless its
        attempt budget is spent, which poisons it.
        """
        now = self.clock()
        reclaimed: List[ClusterTask] = []
        with self._lock:
            for lease in list(self._leases.values()):
                if lease.deadline > now:
                    continue
                self.expired_leases += 1
                self.heartbeats_missed += max(
                    1, int((now - lease.last_heartbeat) / self.heartbeat_interval)
                )
                task = self._tasks[lease.task_key]
                del self._leases[lease.id]
                task.lease = None
                if task.history:
                    task.history[-1].outcome = "expired"
                self._redispatch(task, now, backoff=False)
                reclaimed.append(task)
        return reclaimed

    def _redispatch(self, task: ClusterTask, now: float, *, backoff: bool) -> None:
        if task.attempts >= self.max_attempts:
            task.state = FAILED
            if task.error is None:
                task.error = (
                    f"lease expired {task.attempts} time(s) without a result "
                    f"(worker lost mid-task?)"
                )
            return
        task.state = PENDING
        task.not_before = (
            now + min(self.backoff_cap, self.backoff_base * (2 ** (task.attempts - 1)))
            if backoff
            else now
        )
        self.redispatches += 1

    # ----------------------------------------------------------------- claim
    def claim(self, worker: str) -> Tuple[Optional[ClusterTask], Dict[str, object]]:
        """Grant the first eligible PENDING task to ``worker``.

        Returns ``(task, info)``; ``task`` is ``None`` when nothing is
        eligible and ``info`` explains why (``pending``/``leased`` counts
        plus ``retry_after`` when every pending task is backing off).
        """
        self.expire_stale()
        now = self.clock()
        with self._lock:
            eligible = None
            soonest: Optional[float] = None
            for key in self._order:
                task = self._tasks[key]
                if task.state != PENDING:
                    continue
                if task.not_before <= now:
                    eligible = task
                    break
                soonest = task.not_before if soonest is None else min(soonest, task.not_before)
            if eligible is None:
                counts = self._counts_locked()
                info: Dict[str, object] = {
                    "pending": counts[PENDING],
                    "leased": counts[LEASED],
                }
                if soonest is not None:
                    info["retry_after"] = max(0.0, soonest - now)
                return None, info
            self._sequence += 1
            lease = Lease(
                id=f"lease-{self._sequence}",
                task_key=eligible.key,
                worker=worker,
                granted_at=now,
                deadline=now + self.lease_ttl,
                last_heartbeat=now,
            )
            eligible.state = LEASED
            eligible.attempts += 1
            eligible.lease = lease
            eligible.history.append(
                LeaseRecord(worker=worker, attempt=eligible.attempts, granted_at=now)
            )
            self._leases[lease.id] = lease
            self.leases_granted += 1
            return eligible, {"lease": lease.id, "attempt": eligible.attempts}

    # ------------------------------------------------------------- heartbeat
    def heartbeat(self, worker: str, lease_id: str) -> bool:
        """Extend a lease's deadline; ``False`` if the lease is no longer live.

        A ``False`` reply tells the worker its lease was reclaimed (it may
        finish and upload anyway — idempotence makes the late result a
        harmless no-op).
        """
        now = self.clock()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None or lease.worker != worker:
                return False
            lease.last_heartbeat = now
            lease.deadline = now + self.lease_ttl
            self.heartbeats += 1
            return True

    # -------------------------------------------------------------- complete
    def complete(self, task_key: str, worker: str) -> Tuple[Optional[ClusterTask], bool]:
        """Record a result upload for ``task_key``; ``(task, accepted)``.

        First-completed-wins: only the first upload is accepted; every later
        one (a re-dispatched twin, a worker whose lease expired mid-task) is
        acknowledged but ignored.  Results are accepted even from stale
        leases — the work is correct whoever did it, and the content-hash
        key guarantees it is *the same* work.
        """
        with self._lock:
            task = self._tasks.get(task_key)
            if task is None:
                return None, False
            if task.state == DONE:
                self.redundant_results += 1
                return task, False
            if task.lease is not None:
                self._leases.pop(task.lease.id, None)
                task.lease = None
            task.state = DONE
            task.error = None
            outcome = "completed"
            recorded = False
            for record in reversed(task.history):
                if record.worker == worker and record.outcome in (None, "expired"):
                    record.outcome = outcome
                    recorded = True
                    break
            if not recorded:
                task.history.append(
                    LeaseRecord(
                        worker=worker,
                        attempt=task.attempts,
                        granted_at=self.clock(),
                        outcome=outcome,
                    )
                )
            return task, True

    # ------------------------------------------------------------------ fail
    def fail(self, task_key: str, worker: str, error: str) -> Tuple[Optional[ClusterTask], Dict[str, object]]:
        """Record a worker-reported failure; re-dispatch with backoff or poison."""
        now = self.clock()
        with self._lock:
            task = self._tasks.get(task_key)
            if task is None or task.state in (DONE, FAILED):
                return task, {}
            if task.lease is not None:
                self._leases.pop(task.lease.id, None)
                task.lease = None
            if task.history:
                task.history[-1].outcome = "failed"
            task.error = error
            self._redispatch(task, now, backoff=True)
            if task.state == FAILED:
                return task, {"poisoned": True}
            return task, {"retry_after": max(0.0, task.not_before - now)}

    # ------------------------------------------------------------- accounting
    def _counts_locked(self) -> Dict[str, int]:
        counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for task in self._tasks.values():
            counts[task.state] += 1
        return counts

    def counts(self, submission: Optional[str] = None) -> Dict[str, int]:
        with self._lock:
            if submission is None:
                return self._counts_locked()
            counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
            for task in self._tasks.values():
                if task.submission == submission:
                    counts[task.state] += 1
            return counts

    def profile(self) -> Dict[str, float]:
        """The gated ``cluster.*`` profiling counters (see repro.profiling)."""
        with self._lock:
            return {
                "cluster.leases": float(self.leases_granted),
                "cluster.expired_leases": float(self.expired_leases),
                "cluster.redispatches": float(self.redispatches),
                "cluster.heartbeats_missed": float(self.heartbeats_missed),
                "cluster.heartbeats": float(self.heartbeats),
                "cluster.redundant_results": float(self.redundant_results),
            }
