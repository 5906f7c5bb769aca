"""Wire protocol for the sweep cluster: newline-delimited JSON over TCP.

The protocol is deliberately minimal and stdlib-only: every message is one
strict-JSON object on one ``\\n``-terminated UTF-8 line.  A client opens a
TCP connection, sends one request line, and reads one reply line (the
streaming ``status`` watch is the one exception: the coordinator keeps the
connection open and emits one snapshot line per interval).  One connection
per request keeps both sides trivially thread-safe — workers heartbeat from
a background thread while the main thread executes a task, with no shared
socket state to lock.

Requests carry ``{"op": ..., "proto": PROTOCOL_VERSION, ...}``; replies
carry ``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``.  The
version field lets a future coordinator reject workers from an incompatible
checkout instead of silently mis-merging their results.

:class:`ClusterClient` adds the robustness layer the at-least-once design
assumes: capped exponential retry backoff on connection failures, so a
worker surviving a coordinator restart (or a coordinator still binding its
port) re-delivers its request instead of dying — safe because every
cluster operation is idempotent (claims re-lease, results merge by
content-hash task key, heartbeats are monotonic).

:func:`build_submission_payload` builds a ``submit`` request's wire data
next to the client, so a submitting process imports neither the coordinator
nor ``socketserver``.
"""

from __future__ import annotations

import json
import socket
import time
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.cluster.errors import ClusterError, CoordinatorUnavailable, ProtocolError

if TYPE_CHECKING:
    from repro.experiments.scenario import ExperimentConfig

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ClusterClient",
    "build_submission_payload",
    "decode_message",
    "encode_message",
]

PROTOCOL_VERSION = 1

DEFAULT_HOST = "127.0.0.1"
#: Default coordinator port ("RPRO" on a phone keypad would be 7776; this is
#: simply an unassigned high port).
DEFAULT_PORT = 7341

#: Hard cap on one message line (a RunResult with per-node tables is ~10-100
#: KB at paper scale; 64 MB leaves headroom for large populations while
#: bounding a misbehaving peer).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


def encode_message(message: Dict[str, object]) -> bytes:
    """One strict-JSON object as one newline-terminated UTF-8 line."""
    return (json.dumps(message, allow_nan=False) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, object]:
    """Parse one received line; :class:`ProtocolError` on anything else."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    return message


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


class ClusterClient:
    """Connection-per-request client for the coordinator protocol.

    ``retries``/``retry_backoff``/``retry_cap`` govern re-delivery over an
    unreliable connection: each failed connect sleeps
    ``min(retry_cap, retry_backoff * 2**attempt)`` before retrying, and
    :class:`CoordinatorUnavailable` is raised only once the budget is spent.
    Re-sending a request is always safe — the coordinator's operations are
    idempotent by design (content-hash task keys, first-completed-wins).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 30.0,
        retries: int = 0,
        retry_backoff: float = 0.25,
        retry_cap: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.retry_cap = retry_cap

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------- transport
    def _connect(self) -> socket.socket:
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                last = exc
                if attempt < self.retries:
                    time.sleep(min(self.retry_cap, self.retry_backoff * (2 ** attempt)))
        raise CoordinatorUnavailable(
            f"coordinator at {self.endpoint} unreachable after "
            f"{self.retries + 1} attempt(s): {last}"
        )

    def request(self, op: str, *, check: bool = True, **fields: object) -> Dict[str, object]:
        """Send one request, return the reply dict.

        With ``check`` (the default) a ``{"ok": false}`` reply raises
        :class:`ClusterError` carrying the coordinator's error text.
        """
        message = {"op": op, "proto": PROTOCOL_VERSION, **fields}
        sock = self._connect()
        try:
            sock.sendall(encode_message(message))
            with sock.makefile("rb") as reader:
                line = reader.readline(MAX_MESSAGE_BYTES)
        finally:
            sock.close()
        if not line:
            raise CoordinatorUnavailable(
                f"coordinator at {self.endpoint} closed the connection mid-request"
            )
        reply = decode_message(line)
        if check and not reply.get("ok", False):
            raise ClusterError(str(reply.get("error", "coordinator rejected the request")))
        return reply

    def stream(self, op: str, **fields: object) -> Iterator[Dict[str, object]]:
        """Send one request and yield every reply line until the peer closes.

        Used by the ``status --watch`` live view; the coordinator emits one
        snapshot per interval and closes the stream when all work is done.
        """
        message = {"op": op, "proto": PROTOCOL_VERSION, **fields}
        sock = self._connect()
        try:
            sock.sendall(encode_message(message))
            with sock.makefile("rb") as reader:
                for line in reader:
                    reply = decode_message(line)
                    if not reply.get("ok", False):
                        raise ClusterError(
                            str(reply.get("error", "coordinator rejected the stream"))
                        )
                    yield reply
        finally:
            sock.close()
