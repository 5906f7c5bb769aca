"""Stall faults: nodes pause and resume with their clocks intact.

A stalled node is a paused process, not a dead one (that is churn's
``kill``): its timers keep firing, but every frame it hands to the medium
is queued — and replayed, in order, when the stall ends — and every frame
addressed to it is suppressed while stalled.  This is the GC-pause /
overloaded-CPU / suspended-VM failure mode: the node falls silent without
any protocol-visible departure, so peers must detect the darkness through
timeouts rather than a clean goodbye.

Each participating node alternates active and stalled intervals (both
exponential) drawn from its own named stream (``faults.stall.<node>``),
exactly parallel to :mod:`repro.faults.link_flap` over nodes instead of
links.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.base import (
    STALL,
    FaultEpisode,
    FaultModel,
    FaultPlan,
    StreamFn,
    register_fault,
)
from repro.registry import positive_number, probability


@register_fault("stall")
class Stall(FaultModel):
    """Alternating active/stalled renewal episodes per node."""

    PARAMS = {
        "mean_active": (30.0, positive_number),
        "mean_stalled": (5.0, positive_number),
        "node_fraction": (0.2, probability),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> FaultPlan:
        mean_active = float(self.mean_active)
        mean_stalled = float(self.mean_stalled)
        node_fraction = float(self.node_fraction)

        episodes: List[FaultEpisode] = []
        for node_id in sorted(node_ids):
            rng = stream(f"stall.{node_id}")
            # The first draw decides participation (see link_flap).
            if rng.random() >= node_fraction:
                continue
            time = rng.expovariate(1.0 / mean_active)
            while time < horizon:
                stalled = rng.expovariate(1.0 / mean_stalled)
                episodes.append(
                    FaultEpisode(
                        kind=STALL,
                        start=time,
                        end=min(time + stalled, horizon),
                        subject=node_id,
                    )
                )
                time += stalled + rng.expovariate(1.0 / mean_active)
        episodes.sort(key=lambda episode: episode.start)
        return FaultPlan(episodes=tuple(episodes))
