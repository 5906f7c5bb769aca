"""Partition faults: the network splits at *t* and heals at *t + d*.

The disaster-scenario headline fault: a group of nodes is cut off from the
rest — every link crossing the boundary is blocked — for ``duration``
seconds starting at ``at``, optionally repeating every ``repeat_every``
seconds.  Two membership modes:

* ``membership`` (default) — the group is a seeded random sample of
  ``fraction`` of the nodes, drawn once from the ``faults.partition``
  stream, so the same seed always isolates the same group;
* ``spatial``    — the group is resolved *when the split begins* from node
  positions (the westmost ``fraction`` by x coordinate): a physical barrier
  appearing across the area.  Position lookups at a fixed simulated time
  are deterministic, so this stays reproducible across backends.

Healing is the interesting part: the lifecycle manager records the heal
time and measures time-to-recover — the delay until the first delivery
crossing the old boundary — which the ``partition`` spec reports as
``recovery.*`` extras.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.faults.base import (
    PARTITION,
    SPATIAL,
    FaultEpisode,
    FaultModel,
    FaultPlan,
    StreamFn,
    register_fault,
)
from repro.registry import non_negative_number, positive_number


def _fraction(value):
    if not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        return "must be a fraction in (0, 1)"
    return None


def _mode(value):
    if value not in ("membership", SPATIAL):
        return f"must be 'membership' or {SPATIAL!r}"
    return None


@register_fault("partition")
class Partition(FaultModel):
    """A membership or spatial split at ``at``, healed ``duration`` later."""

    PARAMS = {
        "at": (60.0, non_negative_number),
        "duration": (30.0, positive_number),
        "mode": ("membership", _mode),
        "fraction": (0.5, _fraction),
        # None: the split happens once.
        "repeat_every": (None, positive_number),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> FaultPlan:
        duration = float(self.duration)
        fraction = float(self.fraction)
        repeat_every = self.repeat_every

        if self.mode == SPATIAL:
            # The manager resolves membership from positions at begin time.
            subject = (SPATIAL, fraction)
        else:
            ordered = sorted(node_ids)
            size = max(1, min(len(ordered) - 1, math.ceil(fraction * len(ordered))))
            rng = stream("partition")
            subject = tuple(sorted(rng.sample(ordered, size)))

        episodes: List[FaultEpisode] = []
        start = float(self.at)
        while start < horizon:
            episodes.append(
                FaultEpisode(
                    kind=PARTITION,
                    start=start,
                    end=start + duration,
                    subject=subject,
                )
            )
            if repeat_every is None:
                break
            start += float(repeat_every)
        return FaultPlan(episodes=tuple(episodes))
