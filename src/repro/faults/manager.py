"""The fault lifecycle manager: a model's plan, applied through the simulator.

The scenario builders construct the world exactly as a fault-free run
would; the manager then degrades it on schedule.  Every episode in the
model's :class:`~repro.faults.base.FaultPlan` becomes two scheduler events
— a *begin* and a *heal* — and between them the manager answers the
medium's hot-path queries:

* :meth:`link_extra_loss` — is this (sender, receiver) link blocked
  outright (``None``), clean (``0.0``), or carrying extra loss?  Folds
  together link-flap penalties, partition boundaries and global degrade
  windows;
* :meth:`sender_stalled` / :meth:`queue_frame` — a stalled node's outbound
  frames are queued and replayed, in order, on resume (its clock and
  timers keep running: a paused process, not a dead one);
* :meth:`delivery_suppressed` — frames addressed to a stalled node are
  dropped at completion time (and counted), which also exercises the
  link-layer ARQ exactly as a real silent receiver would.

Healing drives the recovery metrics: when a partition heals, the manager
starts a time-to-recover watch that closes on the first delivery crossing
the old boundary, and notifies registered per-node heal callbacks (the
DAPES peers re-announce themselves, see ``DapesPeer.reannounce``).

Zero faults never reach this module: ``build_fault_manager`` returns
``None`` for ``faults="none"`` and the builders keep the entire subsystem
out of the event stream, preserving byte-identity with pre-fault runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.faults.base import (
    DEGRADE,
    LINK,
    PARTITION,
    SPATIAL,
    STALL,
    FaultEpisode,
    FaultPlan,
    build_fault_model,
    pair_key,
    validate_faults,
)


class FaultManager:
    """Applies a deterministic fault plan to a wired scenario."""

    def __init__(self, sim, medium, model, node_ids: List[str], horizon: float):
        self.sim = sim
        self.medium = medium
        self.model = model
        self.node_ids = list(node_ids)
        self.horizon = float(horizon)
        self._plan: Optional[FaultPlan] = None
        self._activated = False
        # Live fault state.
        self._down: Dict[Tuple[str, str], int] = {}
        self._penalties: Dict[Tuple[str, str], List[float]] = {}
        self._partitions: List[FrozenSet[str]] = []
        self._partition_groups: Dict[int, FrozenSet[str]] = {}
        self._stall_depth: Dict[str, int] = {}
        self._stall_queues: Dict[str, List[object]] = {}
        self._degrade: List[float] = []
        self._degrade_loss = 0.0
        self._active = 0
        self._active_since = 0.0
        self._heal_callbacks: Dict[str, Callable[[], None]] = {}
        self._pending_recovery: List[Tuple[float, FrozenSet[str]]] = []
        # Counters surfaced through metrics()/profiling.
        self.episodes_planned = 0
        self.link_blocks = 0
        self.partitions_started = 0
        self.stalls = 0
        self.degrade_windows = 0
        self.suppressed_deliveries = 0
        self.stalled_sends = 0
        self.replayed_frames = 0
        self.partition_heals = 0
        self.stall_resumes = 0
        self.deliveries_under_fault = 0
        self.fault_active_time = 0.0
        self.recovery_samples: List[float] = []

    # ----------------------------------------------------------------- queries
    def plan(self) -> FaultPlan:
        """The model's full plan (computed once, cached)."""
        if self._plan is None:
            stream = lambda entity: self.sim.rng(f"faults.{entity}")
            self._plan = self.model.plan(self.node_ids, self.horizon, stream)
        return self._plan

    def node_stalled(self, node_id: str) -> bool:
        """Whether ``node_id`` is currently stalled."""
        return node_id in self._stall_depth

    def link_extra_loss(self, sender: str, receiver: str) -> Optional[float]:
        """``None`` when the link is blocked, else the extra loss probability.

        Folds link-flap penalties, partition boundaries and degrade windows
        into one number the medium layers onto the per-link propagation
        loss.  ``0.0`` (the fast path when nothing is active) means clean.
        """
        if not self._active:
            return 0.0
        key = (sender, receiver) if sender <= receiver else (receiver, sender)
        if self._down and key in self._down:
            return None
        for group in self._partitions:
            if (sender in group) != (receiver in group):
                return None
        extra = self._degrade_loss
        if self._penalties:
            for severity in self._penalties.get(key, ()):
                extra = 1.0 - (1.0 - extra) * (1.0 - severity)
        return extra

    def visible(self, node_id: str, other: str) -> bool:
        """Whether ``other`` should appear in ``node_id``'s neighbour set."""
        if not self._active:
            return True
        if other in self._stall_depth:
            return False
        return self.link_extra_loss(node_id, other) is not None

    def sender_stalled(self, node_id: str) -> bool:
        """Hot-path check: must this sender's frame be queued instead of sent?"""
        return bool(self._stall_depth) and node_id in self._stall_depth

    def queue_frame(self, node_id: str, frame) -> None:
        """Queue a stalled sender's frame for replay at resume time."""
        self.stalled_sends += 1
        self._stall_queues[node_id].append(frame)

    def delivery_suppressed(self, receiver_id: str) -> bool:
        """Whether a completing reception at ``receiver_id`` must be dropped."""
        if self._stall_depth and receiver_id in self._stall_depth:
            self.suppressed_deliveries += 1
            return True
        return False

    def note_delivery(self, sender: str, receiver: str) -> None:
        """Observe one successful delivery (goodput + recovery tracking)."""
        if self._active:
            self.deliveries_under_fault += 1
        pending = self._pending_recovery
        if pending:
            now = self.sim.now
            for index, (heal_time, group) in enumerate(pending):
                if (sender in group) != (receiver in group):
                    self.recovery_samples.append(now - heal_time)
                    del pending[index]
                    break

    def metrics(self) -> Dict[str, float]:
        """Fault and recovery counters for RunResult extras / profiling."""
        active_time = self.fault_active_time
        if self._active:
            active_time += self.sim.now - self._active_since
        metrics = {
            "faults.episodes": float(self.episodes_planned),
            "faults.link_blocks": float(self.link_blocks),
            "faults.partitions": float(self.partitions_started),
            "faults.stalls": float(self.stalls),
            "faults.degrade_windows": float(self.degrade_windows),
            "faults.suppressed_deliveries": float(self.suppressed_deliveries),
            "faults.stalled_sends": float(self.stalled_sends),
            "faults.replayed_frames": float(self.replayed_frames),
            "faults.active_time": active_time,
            "faults.deliveries_under_fault": float(self.deliveries_under_fault),
            "recovery.heals": float(self.partition_heals + self.stall_resumes),
        }
        if active_time > 0:
            metrics["recovery.goodput_under_fault"] = (
                self.deliveries_under_fault / active_time
            )
        if self.recovery_samples:
            metrics["recovery.recovered_partitions"] = float(len(self.recovery_samples))
            metrics["recovery.time_to_recover_mean"] = sum(self.recovery_samples) / len(
                self.recovery_samples
            )
            metrics["recovery.time_to_recover_max"] = max(self.recovery_samples)
        return metrics

    # ------------------------------------------------------------ registration
    def register_heal(self, node_id: str, callback: Callable[[], None]) -> None:
        """Register a recovery nudge invoked when ``node_id``'s fault heals.

        Called after a partition containing the node heals or the node's
        stall resumes — the protocol-level hook for re-announcement.
        """
        self._heal_callbacks[node_id] = callback

    # -------------------------------------------------------------- activation
    def activate(self) -> None:
        """Hook into the medium and schedule every episode's begin and heal.

        Called once from ``Scenario.start()``; idempotent.  Episodes are
        scheduled in plan order (stable sort by start time), so equal-time
        events fire in a deterministic sequence.
        """
        if self._activated:
            return
        self._activated = True
        self.medium.set_fault_manager(self)
        plan = self.plan()
        self.episodes_planned = len(plan.episodes)
        now = self.sim.now
        for episode in plan.episodes:
            self.sim.schedule_call(max(0.0, episode.start - now), self._begin, episode)
            self.sim.schedule_call(max(0.0, episode.end - now), self._end, episode)

    # ---------------------------------------------------------- state machine
    def _begin(self, episode: FaultEpisode) -> None:
        if self._active == 0:
            self._active_since = self.sim.now
        self._active += 1
        kind = episode.kind
        if kind == LINK:
            key = pair_key(*episode.subject)
            if episode.severity >= 1.0:
                self._down[key] = self._down.get(key, 0) + 1
            else:
                self._penalties.setdefault(key, []).append(episode.severity)
            self.link_blocks += 1
        elif kind == PARTITION:
            group = self._resolve_group(episode)
            self._partitions.append(group)
            self._partition_groups[id(episode)] = group
            self.partitions_started += 1
        elif kind == STALL:
            node_id = episode.subject
            self._stall_depth[node_id] = self._stall_depth.get(node_id, 0) + 1
            self._stall_queues.setdefault(node_id, [])
            self.stalls += 1
        else:  # DEGRADE
            self._degrade.append(episode.severity)
            self._recompute_degrade()
            self.degrade_windows += 1

    def _end(self, episode: FaultEpisode) -> None:
        kind = episode.kind
        if kind == LINK:
            key = pair_key(*episode.subject)
            if episode.severity >= 1.0:
                remaining = self._down.get(key, 0) - 1
                if remaining <= 0:
                    self._down.pop(key, None)
                else:
                    self._down[key] = remaining
            else:
                stack = self._penalties.get(key)
                if stack:
                    stack.remove(episode.severity)
                    if not stack:
                        del self._penalties[key]
        elif kind == PARTITION:
            group = self._partition_groups.pop(id(episode), None)
            if group is not None:
                self._partitions.remove(group)
                self.partition_heals += 1
                self._pending_recovery.append((self.sim.now, group))
                self._notify_heal(group)
        elif kind == STALL:
            node_id = episode.subject
            depth = self._stall_depth.get(node_id, 0) - 1
            if depth > 0:
                self._stall_depth[node_id] = depth
            else:
                self._stall_depth.pop(node_id, None)
                queue = self._stall_queues.pop(node_id, [])
                self.stall_resumes += 1
                for frame in queue:
                    # Replay in arrival order; a node killed (detached)
                    # mid-stall hits the medium's orphaned-send guard.
                    self.replayed_frames += 1
                    self.medium.transmit(node_id, frame)
                self._notify_heal((node_id,))
        else:  # DEGRADE
            self._degrade.remove(episode.severity)
            self._recompute_degrade()
        self._active -= 1
        if self._active == 0:
            self.fault_active_time += self.sim.now - self._active_since

    def _recompute_degrade(self) -> None:
        loss = 0.0
        for severity in self._degrade:
            loss = 1.0 - (1.0 - loss) * (1.0 - severity)
        self._degrade_loss = loss

    def _resolve_group(self, episode: FaultEpisode) -> FrozenSet[str]:
        """Partition membership: explicit tuple, or a spatial split at begin time.

        The spatial mode isolates the westmost ``fraction`` of the currently
        attached nodes by x coordinate (ties broken by node id) — position
        lookups at one fixed simulated time, so the split is deterministic
        across spatial backends and execution modes.
        """
        subject = episode.subject
        spatial = subject == SPATIAL or (
            isinstance(subject, tuple) and len(subject) == 2 and subject[0] == SPATIAL
            and isinstance(subject[1], float)
        )
        if not spatial:
            return frozenset(subject)
        fraction = subject[1] if isinstance(subject, tuple) else 0.5
        now = self.sim.now
        attached = set(self.medium.node_ids)
        present = [node_id for node_id in self.node_ids if node_id in attached]
        if len(present) < 2:
            return frozenset(present)
        position = self.medium.mobility.position_xy
        ranked = sorted(present, key=lambda node_id: (position(node_id, now)[0], node_id))
        size = max(1, min(len(ranked) - 1, math.ceil(fraction * len(ranked))))
        return frozenset(ranked[:size])

    def _notify_heal(self, group) -> None:
        # Registration order (dict order) keeps the nudges deterministic.
        for node_id, callback in self._heal_callbacks.items():
            if node_id in group:
                callback()


def fault_node_ids(names: Dict[str, List[str]]) -> List[str]:
    """The deterministic faultable set: every node, producer included.

    Unlike churn (which protects the producer — removing it would make
    downloads unsatisfiable rather than exercising dynamics), faults may
    hit anyone: partitioning the producer away from the swarm is exactly
    the disaster scenario the paper targets, and the invariant monitor's
    starvation accounting covers runs where nothing can complete.
    """
    return (
        names.get("downloaders", [])
        + names.get("stationary", [])
        + names.get("pure", [])
        + names.get("intermediate", [])
    )


def build_fault_manager(config, sim, medium, names: Dict[str, List[str]]):
    """Build the fault manager for ``config``, or ``None`` for zero faults.

    The ``none`` model short-circuits here — no manager object, no RNG
    streams, no scheduled events — so a zero-fault run stays byte-identical
    to one built before the fault subsystem existed.
    """
    name = getattr(config, "faults", "none")
    if name == "none":
        return None
    params = dict(getattr(config, "fault_params", None) or {})
    validate_faults(name, params)
    model = build_fault_model(name, params)
    return FaultManager(sim, medium, model, fault_node_ids(names), horizon=config.max_duration)
