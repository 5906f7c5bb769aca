"""Flash-crowd workload: burst arrivals into an initially empty swarm.

The paper's millions-of-users stress proxy: after a disaster (or a viral
release) almost everyone shows up at once.  Every churnable node starts the
run *offline*; arrivals come in ``bursts`` waves starting at ``first_burst``
and spaced ``spacing`` seconds apart, nodes dealt round-robin to waves with
a small per-node jitter so a wave's attach/start events do not all land on
one timestamp.  With ``mean_session`` set, arrived nodes also leave after
an exponential session (gracefully or abruptly, per ``abrupt_fraction``)
and stay gone — a spike-then-decay population.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.churn.base import (
    ARRIVE,
    DEPART,
    KILL,
    ChurnEvent,
    ChurnModel,
    ChurnPlan,
    StreamFn,
    positive_int,
    register_churn,
)
from repro.registry import non_negative_number, positive_number, probability


@register_churn("flashcrowd")
class FlashCrowd(ChurnModel):
    """Everyone offline at t=0; arrivals in deterministic jittered bursts."""

    PARAMS = {
        "first_burst": (20.0, non_negative_number),
        "bursts": (3, positive_int),
        "spacing": (60.0, positive_number),
        "jitter": (5.0, non_negative_number),
        # None: arrived nodes stay for the rest of the run.
        "mean_session": (None, positive_number),
        "abrupt_fraction": (0.3, probability),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> ChurnPlan:
        first_burst = float(self.first_burst)
        bursts = int(self.bursts)
        spacing = float(self.spacing)
        jitter = float(self.jitter)
        mean_session = self.mean_session
        abrupt = float(self.abrupt_fraction)

        events: List[ChurnEvent] = []
        for position, node_id in enumerate(node_ids):
            rng = stream(node_id)
            wave = position % bursts
            time = first_burst + wave * spacing
            if jitter:
                time += rng.uniform(0.0, jitter)
            if time >= horizon:
                continue
            events.append(ChurnEvent(time=time, node_id=node_id, action=ARRIVE))
            if mean_session is not None:
                leave = time + rng.expovariate(1.0 / float(mean_session))
                if leave < horizon:
                    action = KILL if rng.random() < abrupt else DEPART
                    events.append(ChurnEvent(time=leave, node_id=node_id, action=action))
        events.sort(key=lambda event: event.time)
        return ChurnPlan(initially_offline=tuple(node_ids), events=tuple(events))
