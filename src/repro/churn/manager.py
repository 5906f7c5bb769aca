"""The churn lifecycle manager: a model's plan, applied through the simulator.

The scenario builders construct *every* node up front exactly as a
fixed-population run would; the manager then toggles presence.  Each node
registers a radio plus optional ``start``/``stop``/``kill`` callbacks, and
the manager walks the model's :class:`~repro.churn.base.ChurnPlan` through a
three-state machine:

* ``ONLINE``   — radio attached, application running;
* ``DRAINING`` — graceful departure in progress: the application has
  stopped (no new work), in-flight transmissions get ``drain_delay``
  seconds to land, then the radio detaches;
* ``OFFLINE``  — radio detached; fire-and-forget events referencing the
  node hit the liveness guards and no-op.

An *abrupt kill* skips the drain entirely: ``kill`` (falling back to
``stop``) then instant detach, mid-transfer — the fault-injection path.
Redundant events (a depart for an already-offline node, say, from a
hand-written trace) are counted (``churn.redundant_events``) and ignored
rather than raised, so trace replays never crash a run half-way.

Zero churn never reaches this module: ``build_churn_manager`` returns
``None`` for ``churn="none"`` and the builders keep the entire subsystem
out of the event stream, preserving byte-identity with pre-churn runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.churn.base import (
    ARRIVE,
    DEPART,
    KILL,
    ChurnEvent,
    ChurnModel,
    ChurnPlan,
    build_churn_model,
)

ONLINE = "online"
DRAINING = "draining"
OFFLINE = "offline"

#: Default graceful-departure drain window (seconds).
DEFAULT_DRAIN_DELAY = 0.25


class _Registration:
    """One churnable node's lifecycle hooks."""

    __slots__ = ("radio", "start", "stop", "kill", "state")

    def __init__(self, radio, start, stop, kill):
        self.radio = radio
        self.start = start
        self.stop = stop
        self.kill = kill
        self.state = ONLINE


class ChurnManager:
    """Applies a deterministic churn plan to registered node lifecycles."""

    def __init__(
        self,
        sim,
        medium,
        model,
        node_ids: List[str],
        horizon: float,
        drain_delay: float = DEFAULT_DRAIN_DELAY,
    ):
        self.sim = sim
        self.medium = medium
        self.model = model
        self.node_ids = list(node_ids)
        self.horizon = float(horizon)
        self.drain_delay = float(drain_delay)
        self._registrations: Dict[str, _Registration] = {}
        self._plan: Optional[ChurnPlan] = None
        self._activated = False
        # Counters surfaced through metrics()/profiling.
        self.arrivals = 0
        self.departures = 0
        self.abrupt_kills = 0
        self.redundant_events = 0

    # ------------------------------------------------------------ registration
    def register(
        self,
        node_id: str,
        radio,
        start: Optional[Callable[[], None]] = None,
        stop: Optional[Callable[[], None]] = None,
        kill: Optional[Callable[[], None]] = None,
    ) -> None:
        """Register a churnable node's radio and lifecycle callbacks.

        ``start`` runs on arrival (after the radio attaches); ``stop`` on
        graceful departure (before the drain window); ``kill`` on abrupt
        departure (falling back to ``stop`` when omitted).  Radio-only nodes
        (pure forwarders) register with no callbacks at all.
        """
        if node_id not in self.node_ids:
            raise ValueError(f"node {node_id!r} is not in the churnable set")
        if node_id in self._registrations:
            raise ValueError(f"node {node_id!r} is already registered for churn")
        self._registrations[node_id] = _Registration(radio, start, stop, kill)

    # ----------------------------------------------------------------- queries
    def plan(self) -> ChurnPlan:
        """The model's full plan (computed once, cached)."""
        if self._plan is None:
            stream = lambda node_id: self.sim.rng(f"churn.{node_id}")
            self._plan = self.model.plan(self.node_ids, self.horizon, stream)
        return self._plan

    def online(self, node_id: str) -> bool:
        """Whether ``node_id`` is currently present (unregistered → True)."""
        registration = self._registrations.get(node_id)
        return registration is None or registration.state == ONLINE

    def metrics(self) -> Dict[str, float]:
        """Churn counters for RunResult extras / profiling."""
        return {
            "churn.arrivals": self.arrivals,
            "churn.departures": self.departures,
            "churn.abrupt_kills": self.abrupt_kills,
            "churn.orphaned_sends": self.medium.orphaned_sends,
            "churn.redundant_events": self.redundant_events,
        }

    # -------------------------------------------------------------- activation
    def activate(self) -> None:
        """Apply the plan: detach initially-offline nodes, schedule the rest.

        Called once from ``Scenario.start()`` *before* node applications
        start, so initially-offline nodes never attach, never arm timers
        and never draw from their protocol RNG streams until they arrive.
        Idempotent — a second call is a no-op.
        """
        if self._activated:
            return
        self._activated = True
        plan = self.plan()
        for node_id in plan.initially_offline:
            registration = self._registrations.get(node_id)
            if registration is None or registration.state == OFFLINE:
                continue
            registration.state = OFFLINE
            self.medium.detach(node_id)
        now = self.sim.now
        for event in plan.events:
            self.sim.schedule_call(max(0.0, event.time - now), self._apply, event)

    # ---------------------------------------------------------- state machine
    def _apply(self, event: ChurnEvent) -> None:
        registration = self._registrations.get(event.node_id)
        if registration is None:
            self.redundant_events += 1
            return
        if event.action == ARRIVE:
            self._arrive(event.node_id, registration)
        elif event.action == DEPART:
            self._depart(event.node_id, registration)
        elif event.action == KILL:
            self._kill(event.node_id, registration)

    def _arrive(self, node_id: str, registration: _Registration) -> None:
        if registration.state != OFFLINE:
            self.redundant_events += 1
            return
        registration.state = ONLINE
        self.medium.attach(registration.radio)
        if registration.start is not None:
            registration.start()
        self.arrivals += 1

    def _depart(self, node_id: str, registration: _Registration) -> None:
        if registration.state != ONLINE:
            self.redundant_events += 1
            return
        registration.state = DRAINING
        if registration.stop is not None:
            registration.stop()
        self.departures += 1
        self.sim.schedule_call(self.drain_delay, self._finish_drain, node_id)

    def _kill(self, node_id: str, registration: _Registration) -> None:
        if registration.state == OFFLINE:
            self.redundant_events += 1
            return
        was_online = registration.state == ONLINE
        registration.state = OFFLINE
        if was_online:
            callback = registration.kill or registration.stop
            if callback is not None:
                callback()
        self.medium.detach(node_id)
        self.abrupt_kills += 1

    def _finish_drain(self, node_id: str) -> None:
        registration = self._registrations.get(node_id)
        if registration is None or registration.state != DRAINING:
            # The drain was superseded (e.g. a kill landed mid-drain).
            return
        registration.state = OFFLINE
        self.medium.detach(node_id)


def churnable_node_ids(names: Dict[str, List[str]]) -> List[str]:
    """The deterministic churnable set: every node except the producer/seed.

    ``names["downloaders"][0]`` is the content producer (DAPES) or swarm
    seed (IP baselines); removing it would make every download unsatisfiable
    rather than exercising churn, so it is protected.
    """
    protected = set(names["downloaders"][:1])
    ordered = (
        names.get("downloaders", [])
        + names.get("stationary", [])
        + names.get("pure", [])
        + names.get("intermediate", [])
    )
    return [node_id for node_id in ordered if node_id not in protected]


def configured_churn(config) -> Optional[Tuple[ChurnModel, float]]:
    """``(model, drain_delay)`` for ``config.churn``, or ``None`` for ``none``.

    ``drain_delay`` is a manager knob, not a model parameter, and is popped
    from ``config.churn_params`` before model construction.  Spec planning
    calls this too, so an unknown model or a bad parameter fails before any
    task runs, by the same check the build applies.
    """
    if config.churn == "none":
        return None
    params = dict(config.churn_params)
    drain_delay = params.pop("drain_delay", DEFAULT_DRAIN_DELAY)
    if not isinstance(drain_delay, (int, float)) or not 0 <= drain_delay < math.inf:
        raise ValueError(
            f"churn parameter 'drain_delay' must be a finite non-negative number "
            f"(got {drain_delay!r})"
        )
    return build_churn_model(config.churn, params), float(drain_delay)


def build_churn_manager(config, sim, medium, names: Dict[str, List[str]]):
    """Build the lifecycle manager for ``config``, or ``None`` for zero churn.

    The ``none`` model short-circuits here — no manager object, no RNG
    streams, no scheduled events — so a zero-churn run stays byte-identical
    to one built before the churn subsystem existed.
    """
    configured = configured_churn(config)
    if configured is None:
        return None
    model, drain_delay = configured
    return ChurnManager(
        sim,
        medium,
        model,
        churnable_node_ids(names),
        horizon=config.max_duration,
        drain_delay=drain_delay,
    )
