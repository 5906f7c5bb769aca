"""Runtime invariant monitors: safety and liveness under any run.

The monitor is *pure observation*: it draws from no RNG stream, schedules
no events and mutates no simulation state, so enabling it
(``ExperimentConfig.invariants``) leaves every result byte-identical to a
monitor-free run — the property the equivalence tests assert.  What it
checks:

* **safety** — no frame is ever delivered to a detached or stalled node
  (hooked into the medium's delivery path, immediately before
  ``radio.deliver``);
* **liveness** — PIT entries expire: after a final sweep, no forwarder
  retains an entry past its expiry;
* **accounting** — every measured download either completed (store full,
  completion time recorded, download time reported — all three agree) or
  is accounted as starved (none of the three present).  A partition that
  never heals starves downloads; it must never *miscount* them.

Violations collect as human-readable strings; the trial runner raises
:class:`InvariantViolationError` when any survive :meth:`finalize`.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class InvariantViolationError(RuntimeError):
    """One or more runtime invariants were violated during a trial."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        summary = "; ".join(self.violations[:5])
        if len(self.violations) > 5:
            summary += f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} invariant violation(s): {summary}")


class InvariantMonitor:
    """Observes one trial and records safety/liveness violations."""

    def __init__(self, sim, medium, faults=None):
        self.sim = sim
        self.medium = medium
        self.faults = faults
        self.violations: List[str] = []
        self.deliveries_checked = 0
        self.pits_checked = 0
        self.downloads_checked = 0

    # ------------------------------------------------------------ installation
    def install(self) -> None:
        """Hook the delivery-path safety check into the medium."""
        self.medium.set_delivery_monitor(self._on_deliver)

    def _on_deliver(self, receiver_id: str, frame) -> None:
        self.deliveries_checked += 1
        if receiver_id not in self.medium.node_ids:
            self.violations.append(
                f"safety: delivery to detached node {receiver_id!r} "
                f"at t={self.sim.now:.6f}"
            )
        faults = self.faults
        if faults is not None and faults.node_stalled(receiver_id):
            self.violations.append(
                f"safety: delivery to stalled node {receiver_id!r} "
                f"at t={self.sim.now:.6f}"
            )

    def metrics(self) -> Dict[str, float]:
        """How much the monitor checked, for a run profile."""
        return {
            "invariants.deliveries_checked": float(self.deliveries_checked),
            "invariants.pits_checked": float(self.pits_checked),
            "invariants.downloads_checked": float(self.downloads_checked),
        }

    # --------------------------------------------------------------- finalize
    def finalize(self, scenario) -> List[str]:
        """End-of-run liveness/accounting sweep; returns all violations."""
        self._check_pits(scenario)
        self._check_downloads(scenario)
        return list(self.violations)

    def _check_pits(self, scenario) -> None:
        now = self.sim.now
        holders = list(getattr(scenario, "nodes", {}).values()) + list(
            getattr(scenario, "pure_forwarders", {}).values()
        )
        for holder in holders:
            pit = getattr(getattr(holder, "forwarder", None), "pit", None)
            if pit is None:
                continue
            self.pits_checked += 1
            pit.expire(now)
            for entry in pit.entries():
                if entry.expiry <= now:
                    self.violations.append(
                        f"liveness: PIT entry {entry.name} on "
                        f"{getattr(holder, 'node_id', '?')!r} survived its expiry "
                        f"({entry.expiry:.6f} <= {now:.6f})"
                    )

    def _check_downloads(self, scenario) -> None:
        nodes = getattr(scenario, "nodes", None)
        collection_id = getattr(scenario, "collection_id", "")
        for node_id in scenario.downloader_ids:
            self.downloads_checked += 1
            elapsed = scenario.download_time(node_id)
            if elapsed is not None and elapsed < 0:
                self.violations.append(
                    f"accounting: negative download time {elapsed!r} for {node_id!r}"
                )
            if nodes is None:
                continue
            session = nodes[node_id].peer.sessions.get(collection_id)
            if session is None or session.store is None:
                if elapsed is not None:
                    self.violations.append(
                        f"accounting: {node_id!r} reports a download time "
                        f"without a session store"
                    )
                continue
            store_complete = session.is_complete
            has_time = session.completion_time is not None
            if store_complete != has_time:
                self.violations.append(
                    f"accounting: {node_id!r} store complete={store_complete} but "
                    f"completion_time recorded={has_time} — a download must "
                    f"either complete or be accounted as starved"
                )
            if (elapsed is not None) != has_time:
                self.violations.append(
                    f"accounting: {node_id!r} download_time reported="
                    f"{elapsed is not None} disagrees with completion_time "
                    f"recorded={has_time}"
                )


def build_invariant_monitor(config, sim, medium, faults=None) -> Optional[InvariantMonitor]:
    """An installed monitor when ``config.invariants`` is set, else ``None``."""
    if not config.invariants:
        return None
    monitor = InvariantMonitor(sim, medium, faults=faults)
    monitor.install()
    return monitor
