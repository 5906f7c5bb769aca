"""The end-of-trial invariant check, run after every trial.

:func:`check_trial` only observes: it draws from no RNG stream, schedules
no events and mutates no simulation state, so
:func:`repro.experiments.runner.run_protocol_trial` runs it after every
trial and every result is what it would be without it.  What it checks:

* **liveness** — PIT entries expire: no forwarder still holds an entry
  whose expiry lies in the past.  Each forwarder drops an entry when its
  lifetime elapses, so a survivor means that expiry was never handled;
* **accounting** — every measured download either completed (store full,
  completion time recorded, download time reported — all three agree) or
  is accounted as starved (none of the three present).  A partition that
  never heals starves downloads; it must never *miscount* them.

Delivery safety — no frame reaches a detached or stalled node — is the
medium's own guard in ``WirelessMedium._complete_transmission``, and the
stall/kill property test drives it through random interleavings.
"""

from __future__ import annotations

from typing import List


class InvariantViolationError(RuntimeError):
    """One or more runtime invariants were violated during a trial."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        summary = "; ".join(self.violations[:5])
        if len(self.violations) > 5:
            summary += f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} invariant violation(s): {summary}")


def check_trial(scenario) -> None:
    """Raise :class:`InvariantViolationError` if ``scenario`` ended unsound."""
    violations = _pit_violations(scenario) + _download_violations(scenario)
    if violations:
        raise InvariantViolationError(violations)


def _pit_violations(scenario) -> List[str]:
    now = scenario.sim.now
    holders = [
        *getattr(scenario, "nodes", {}).values(),
        *getattr(scenario, "pure_forwarders", {}).values(),
    ]
    return [
        f"liveness: PIT entry {entry.name} on {holder.node_id!r} survived its expiry "
        f"({entry.expiry:.6f} < {now:.6f})"
        for holder in holders
        for entry in holder.forwarder.pit.entries()
        if entry.expiry < now
    ]


def _download_violations(scenario) -> List[str]:
    violations: List[str] = []
    nodes = getattr(scenario, "nodes", None)
    collection_id = getattr(scenario, "collection_id", "")
    for node_id in scenario.downloader_ids:
        elapsed = scenario.download_time(node_id)
        if elapsed is not None and elapsed < 0:
            violations.append(f"accounting: negative download time {elapsed!r} for {node_id!r}")
        if nodes is None:
            continue
        session = nodes[node_id].peer.sessions.get(collection_id)
        if session is None or session.store is None:
            if elapsed is not None:
                violations.append(
                    f"accounting: {node_id!r} reports a download time without a session store"
                )
            continue
        store_complete = session.is_complete
        has_time = session.completion_time is not None
        if store_complete != has_time:
            violations.append(
                f"accounting: {node_id!r} store complete={store_complete} but "
                f"completion_time recorded={has_time} — a download must "
                f"either complete or be accounted as starved"
            )
        if (elapsed is not None) != has_time:
            violations.append(
                f"accounting: {node_id!r} download_time reported="
                f"{elapsed is not None} disagrees with completion_time "
                f"recorded={has_time}"
            )
    return violations
