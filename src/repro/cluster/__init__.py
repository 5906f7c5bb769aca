"""Distributed sweep cluster: coordinator, workers, leases, wire protocol.

This package turns the in-process sweep scheduler
(:mod:`repro.experiments.sweep`) into a small distributed system without
changing what gets computed: a :class:`Coordinator` flattens submissions
into the scheduler's own :class:`~repro.experiments.sweep.SweepGrid` and
serves its tasks over newline-delimited JSON on TCP; :class:`ClusterWorker`
loops claim leases and run each task parsed back from its wire form; results
are keyed by the same content-hash task keys the on-disk
:class:`~repro.experiments.store.TaskCache` uses.  Serial, process-pool and
cluster runs of the same grid therefore produce byte-identical aggregates
— and can resume each other from a shared result store.

Failure handling is the classic at-least-once lease design: heartbeat-based
failure detection with lease expiry and re-dispatch, first-completed-wins
merging (a no-op by idempotence), capped exponential backoff for poison
tasks, graceful drain vs abrupt kill.  See each module's docstring for the
mechanics; the ``repro-experiments serve | worker | submit | status``
subcommands wire it to the CLI.
"""

from repro.cluster.coordinator import Coordinator, build_submission_payload
from repro.cluster.errors import (
    ClusterError,
    CoordinatorUnavailable,
    ProtocolError,
    SubmissionFailed,
)
from repro.cluster.leases import ClusterTask, Lease, LeaseRecord, LeaseTable
from repro.cluster.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    ClusterClient,
)
from repro.cluster.status import render_status
from repro.cluster.worker import ClusterWorker, default_worker_id

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterTask",
    "ClusterWorker",
    "Coordinator",
    "CoordinatorUnavailable",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Lease",
    "LeaseRecord",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SubmissionFailed",
    "build_submission_payload",
    "default_worker_id",
    "render_status",
]
