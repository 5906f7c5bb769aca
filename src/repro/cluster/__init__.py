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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "coordinator": ("Coordinator",),
    "errors": ("ClusterError", "CoordinatorUnavailable", "ProtocolError", "SubmissionFailed"),
    "leases": ("ClusterTask", "Lease", "LeaseRecord", "LeaseTable"),
    "protocol": (
        "DEFAULT_HOST",
        "DEFAULT_PORT",
        "PROTOCOL_VERSION",
        "ClusterClient",
        "build_submission_payload",
    ),
    "status": ("render_status",),
    "worker": ("ClusterWorker", "default_worker_id"),
})
