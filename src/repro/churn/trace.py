"""Trace-driven churn: replay a scripted population trajectory.

``TraceChurn`` takes the schedule literally — ``events`` is a list of
``[time, node_id, action]`` triples and ``initially_offline`` the nodes
absent at t=0 — and draws nothing from any RNG stream.  It exists for two
reasons: replaying measured availability traces against the simulator, and
writing exact-timing regression tests (kill *this* node at *this* instant,
mid-ARQ-retry) without fishing for a seed that happens to produce the
interleaving under a stochastic model.

Node ids are validated against the churnable set at ``plan()`` time — a
trace referencing a node the topology does not have raises ``ValueError``
with the offending id and the known names, instead of being silently
dropped (or surfacing later as a mid-run ``KeyError``).  Events at or
beyond the horizon are still filtered out: truncating a long measured
trace to a shorter run is legitimate; naming a ghost node is a typo.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.churn.base import (
    ACTIONS,
    ChurnEvent,
    ChurnModel,
    ChurnPlan,
    StreamFn,
    register_churn,
)


def _event_list(value):
    if not isinstance(value, (list, tuple)):
        return "must be a list of [time, node_id, action] triples"
    for entry in value:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            return "must be a list of [time, node_id, action] triples"
        time, node_id, action = entry
        if not isinstance(time, (int, float)) or time < 0:
            return f"has a negative or non-numeric time in {list(entry)!r}"
        if not isinstance(node_id, str) or not node_id:
            return f"has a non-string node id in {list(entry)!r}"
        if action not in ACTIONS:
            return f"has action {action!r}; expected one of {ACTIONS}"
    return None


def _node_list(value):
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(node_id, str) and node_id for node_id in value
    ):
        return "must be a list of node-id strings"
    return None


@register_churn("trace")
class TraceChurn(ChurnModel):
    """Replay an explicit, pre-scripted churn schedule."""

    PARAMS = {
        "events": ((), _event_list),
        "initially_offline": ((), _node_list),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> ChurnPlan:
        known = set(node_ids)
        offline = []
        for node_id in self.initially_offline:
            if node_id not in known:
                raise ValueError(
                    f"trace churn: initially_offline names unknown node {node_id!r}; "
                    f"churnable nodes are {sorted(known)}"
                )
            offline.append(node_id)
        events: List[ChurnEvent] = []
        for time, node_id, action in self.events:
            if node_id not in known:
                raise ValueError(
                    f"trace churn: event [{time}, {node_id!r}, {action!r}] names an "
                    f"unknown node; churnable nodes are {sorted(known)}"
                )
            if action not in ACTIONS:
                raise ValueError(
                    f"trace churn: event [{time}, {node_id!r}, {action!r}] has an "
                    f"unknown action; expected one of {ACTIONS}"
                )
            if time >= horizon:
                continue
            events.append(ChurnEvent(time=float(time), node_id=node_id, action=action))
        events.sort(key=lambda event: event.time)
        return ChurnPlan(initially_offline=tuple(offline), events=tuple(events))
