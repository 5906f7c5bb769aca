"""Degrade faults: time-varying channel quality as a deterministic waveform.

The whole channel periodically worsens: during the last ``duty`` fraction
of every ``period``, an extra loss probability of ``severity`` applies to
every delivery (on top of propagation and uniform channel loss).  With
``severity=1.0`` the window is a total blackout.

The waveform is a pure square wave — no RNG streams at all — because the
interesting randomness is *when frames happen to be in flight*, which the
protocols already provide.  That also makes degrade the cheapest fault
model to reason about in regression tests: the degraded windows sit at
exactly ``k*period + (1-duty)*period``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.base import (
    DEGRADE,
    FaultEpisode,
    FaultModel,
    FaultPlan,
    StreamFn,
    register_fault,
    severity_value,
)
from repro.registry import non_negative_number, positive_number


def _duty(value):
    if not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        return "must be a duty fraction in (0, 1)"
    return None


@register_fault("degrade")
class Degrade(FaultModel):
    """A periodic square wave of extra channel loss."""

    PARAMS = {
        "period": (20.0, positive_number),
        "duty": (0.25, _duty),
        "severity": (0.5, severity_value),
        "offset": (0.0, non_negative_number),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> FaultPlan:
        period = float(self.period)
        duty = float(self.duty)
        severity = float(self.severity)
        offset = float(self.offset)

        episodes: List[FaultEpisode] = []
        start = offset + period * (1.0 - duty)
        while start < horizon:
            episodes.append(
                FaultEpisode(
                    kind=DEGRADE,
                    start=start,
                    end=min(start + period * duty, horizon),
                    subject=None,
                    severity=severity,
                )
            )
            start += period
        return FaultPlan(episodes=tuple(episodes))
