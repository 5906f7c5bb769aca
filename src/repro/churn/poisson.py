"""Poisson session churn with pluggable session-length distributions.

Each churnable node lives through an alternating renewal process: an online
*session* followed by an offline gap, repeated over the run horizon.  Gaps
are exponential (memoryless re-arrivals — the classic Poisson assumption);
session lengths come from a pluggable distribution, because measured
peer-to-peer session lengths are famously *not* exponential:

* ``exponential`` — the memoryless reference;
* ``lognormal``   — the shape measured for most file-sharing deployments
  (many short sessions, a long tail of stayers);
* ``pareto``      — the heavy-tailed extreme (infinite variance below
  ``alpha=2``), the stress case for protocols that assume stable peers.

A departure ends the session *gracefully* (drain + deregister) with
probability ``1 - abrupt_fraction`` and as an *abrupt kill* (instant detach
mid-transfer) otherwise.  All draws come from the node's own named stream,
so one node's trajectory never perturbs another's.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.churn.base import (
    ARRIVE,
    DEPART,
    KILL,
    ChurnEvent,
    ChurnModel,
    ChurnPlan,
    StreamFn,
    register_churn,
)
from repro.registry import positive_number, probability

SESSION_DISTRIBUTIONS = ("exponential", "lognormal", "pareto")


def _distribution(value):
    if value not in SESSION_DISTRIBUTIONS:
        return f"must be one of {SESSION_DISTRIBUTIONS}"
    return None


def _alpha(value):
    if not isinstance(value, (int, float)) or not value > 1.0:
        return "must be > 1 (the Pareto mean is infinite otherwise)"
    return None


@register_churn("poisson")
class PoissonChurn(ChurnModel):
    """Alternating online/offline renewal churn per node."""

    PARAMS = {
        "mean_session": (120.0, positive_number),
        "mean_offline": (60.0, positive_number),
        "session_distribution": ("exponential", _distribution),
        "abrupt_fraction": (0.3, probability),
        "lognormal_sigma": (1.0, positive_number),
        "pareto_alpha": (2.5, _alpha),
    }

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> ChurnPlan:
        mean_offline = float(self.mean_offline)
        abrupt = float(self.abrupt_fraction)
        draw_session = self._session_sampler(
            self.session_distribution,
            float(self.mean_session),
            float(self.lognormal_sigma),
            float(self.pareto_alpha),
        )

        events: List[ChurnEvent] = []
        for node_id in node_ids:
            rng = stream(node_id)
            time = draw_session(rng)
            while time < horizon:
                action = KILL if rng.random() < abrupt else DEPART
                events.append(ChurnEvent(time=time, node_id=node_id, action=action))
                time += rng.expovariate(1.0 / mean_offline)
                if time >= horizon:
                    break
                events.append(ChurnEvent(time=time, node_id=node_id, action=ARRIVE))
                time += draw_session(rng)
        # Stable sort: same-time events keep node order, so the manager
        # schedules an identical sequence every run.
        events.sort(key=lambda event: event.time)
        return ChurnPlan(events=tuple(events))

    @staticmethod
    def _session_sampler(distribution: str, mean: float, sigma: float, alpha: float):
        """A ``rng -> session length`` sampler with the requested mean."""
        if distribution == "exponential":
            rate = 1.0 / mean
            return lambda rng: rng.expovariate(rate)
        if distribution == "lognormal":
            # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) == mean.
            mu = math.log(mean) - sigma * sigma / 2.0
            return lambda rng: rng.lognormvariate(mu, sigma)
        # Pareto with scale xm chosen so E = xm * alpha / (alpha - 1) == mean.
        scale = mean * (alpha - 1.0) / alpha
        return lambda rng: scale * rng.paretovariate(alpha)
