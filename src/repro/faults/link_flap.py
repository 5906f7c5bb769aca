"""Link-flap faults: per-pair loss episodes layered onto any propagation.

Each participating node pair lives through an alternating renewal process —
an *up* interval followed by a *down* episode, both exponential — entirely
analogous to the Poisson churn model, but over links instead of nodes.  A
``pair_fraction`` of all pairs participates (the rest never flap), and a
down episode either blocks the link outright (``severity=1.0``, the
default) or adds ``severity`` extra loss probability on top of whatever the
propagation model and the uniform channel loss already impose.

Every draw for a pair comes from that pair's own named stream
(``faults.link.<a>|<b>``, ids sorted), so one link's trajectory never
perturbs another's — the property that keeps plans identical across
spatial backends and execution modes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.base import (
    LINK,
    FaultEpisode,
    FaultModel,
    FaultPlan,
    StreamFn,
    pair_key,
    register_fault,
    severity_value,
)
from repro.registry import positive_number, probability


@register_fault("link_flap")
class LinkFlap(FaultModel):
    """Alternating up/down renewal episodes per node pair."""

    PARAMS = {
        "mean_up": (20.0, positive_number),
        "mean_down": (5.0, positive_number),
        "pair_fraction": (0.3, probability),
        "severity": (1.0, severity_value),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> FaultPlan:
        mean_up = float(self.mean_up)
        mean_down = float(self.mean_down)
        pair_fraction = float(self.pair_fraction)
        severity = float(self.severity)

        episodes: List[FaultEpisode] = []
        ordered = sorted(node_ids)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                pair = pair_key(a, b)
                rng = stream(f"link.{pair[0]}|{pair[1]}")
                # The first draw decides participation, so adding a pair to
                # the topology never shifts any other pair's episode times.
                if rng.random() >= pair_fraction:
                    continue
                time = rng.expovariate(1.0 / mean_up)
                while time < horizon:
                    down = rng.expovariate(1.0 / mean_down)
                    episodes.append(
                        FaultEpisode(
                            kind=LINK,
                            start=time,
                            end=min(time + down, horizon),
                            subject=pair,
                            severity=severity,
                        )
                    )
                    time += down + rng.expovariate(1.0 / mean_up)
        episodes.sort(key=lambda episode: episode.start)
        return FaultPlan(episodes=tuple(episodes))
