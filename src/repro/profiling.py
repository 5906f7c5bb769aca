"""Per-run performance profiling: named counters, timers, per-subsystem rates.

Two pieces:

* :class:`Profiler` — a tiny named-counter/timer registry for ad-hoc
  instrumentation (used by tools and tests; cheap enough to sprinkle).
* :func:`collect_run_profile` — samples the counters the simulator already
  maintains for free (engine events, medium/radio statistics, spatial-index
  rebuilds, mobility leg caches) into one flat ``{name: value}`` mapping.
  :func:`repro.experiments.runner.run_protocol_trial` attaches it to
  :attr:`RunResult.profile` when :attr:`ExperimentConfig.profile` is set, and
  ``python -m repro.experiments run --profile`` prints the aggregated
  breakdown.

Profiles deliberately live *outside* result equality: they contain wall-clock
measurements, which vary run to run, while every other ``RunResult`` field is
deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

#: Keys that denominate in wall-clock seconds (excluded from rate summaries).
_TIME_KEYS = ("wall_clock_s",)


class Profiler:
    """Named counters and accumulating timers.

    >>> profiler = Profiler()
    >>> profiler.count("frames", 3)
    >>> with profiler.timer("deliver"):
    ...     pass
    >>> sorted(profiler.counters) == ['frames']
    True
    """

    __slots__ = ("counters", "timers", "timer_calls")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.timers: Dict[str, float] = {}
        self.timer_calls: Dict[str, int] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timers[name] = self.timers.get(name, 0.0) + elapsed
            self.timer_calls[name] = self.timer_calls.get(name, 0) + 1

    def snapshot(self) -> Dict[str, float]:
        """Flat mapping of every counter and timer (timers suffixed ``_s``)."""
        merged: Dict[str, float] = dict(self.counters)
        for name, elapsed in self.timers.items():
            merged[f"{name}_s"] = elapsed
            merged[f"{name}_calls"] = self.timer_calls[name]
        return merged


def collect_run_profile(sim, medium, wall_clock_s: float, churn=None, faults=None) -> Dict[str, float]:
    """Sample one finished trial's counters into a flat profile mapping.

    Everything here is read from state the hot paths maintain anyway, so
    profiling adds no per-event cost — only this end-of-run sweep.
    """
    profile: Dict[str, float] = {
        "wall_clock_s": wall_clock_s,
        "engine.events": float(sim.events_processed),
        "engine.pending_at_end": float(sim.pending_events),
    }
    if wall_clock_s > 0:
        profile["engine.events_per_sec"] = sim.events_processed / wall_clock_s

    stats = medium.stats
    profile["wireless.frames_transmitted"] = float(stats.frames_transmitted)
    profile["wireless.bytes_transmitted"] = float(stats.bytes_transmitted)
    profile["wireless.deliveries"] = float(stats.deliveries)
    profile["wireless.collisions"] = float(stats.collisions)
    profile["wireless.losses"] = float(stats.losses)
    profile["wireless.csma_deferrals"] = float(medium.csma_deferrals)
    profile["wireless.arq_retries"] = float(medium.arq_retries)
    profile["wireless.completed_transmissions"] = float(medium.completed_transmissions)
    profile["wireless.link_evaluations"] = float(getattr(medium, "link_evaluations", 0))

    propagation = getattr(medium, "propagation", None)
    occlusion_checks = getattr(propagation, "occlusion_checks", None)
    if occlusion_checks is not None:
        profile["propagation.occlusion_checks"] = float(occlusion_checks)
    if wall_clock_s > 0:
        profile["wireless.frames_per_sec"] = stats.frames_transmitted / wall_clock_s
        profile["wireless.deliveries_per_sec"] = stats.deliveries / wall_clock_s

    index = getattr(medium, "_index", None)
    if index is not None:
        rebuilds = getattr(index, "rebuilds", None)
        if rebuilds is not None:
            profile["spatial.snapshot_rebuilds"] = float(rebuilds)
        # Neighbour-set reuse traffic (the grid's; the brute-force test oracle
        # remembers nothing).
        reuse_hits = getattr(index, "reuse_hits", None)
        if reuse_hits is not None:
            profile["spatial.reuse_hits"] = float(reuse_hits)
            profile["spatial.reuse_misses"] = float(index.reuse_misses)

    mobility = getattr(medium, "mobility", None)
    legs = _count_mobility_legs(mobility)
    if legs is not None:
        profile["mobility.legs_generated"] = float(legs)

    # Churn lifecycle counters — only when a manager exists, so zero-churn
    # profiles keep their pre-churn key set.
    if churn is not None:
        profile["wireless.orphaned_sends"] = float(getattr(medium, "orphaned_sends", 0))
        profile["churn.arrivals"] = float(churn.arrivals)
        profile["churn.departures"] = float(churn.departures)
        profile["churn.abrupt_kills"] = float(churn.abrupt_kills)
        profile["churn.redundant_events"] = float(churn.redundant_events)
    # Fault and recovery counters — same discipline: absent for zero-fault
    # profiles.
    if faults is not None:
        profile.update(faults.metrics())
    return profile


def _count_mobility_legs(mobility) -> Optional[int]:
    """Total trajectory legs/segments generated by the mobility model(s)."""
    if mobility is None:
        return None
    # CompositeMobility: sum over children.
    children = getattr(mobility, "_model_list", None)
    if children is not None:
        total = 0
        for child in children:
            legs = _count_mobility_legs(child)
            if legs:
                total += legs
        return total
    for attr in ("_segments", "_legs"):
        table = getattr(mobility, attr, None)
        if isinstance(table, dict):
            return sum(len(entries) for entries in table.values())
    return 0


# ------------------------------------------------------------- aggregation
def merge_profiles(profiles: List[Mapping[str, float]]) -> Dict[str, float]:
    """Sum profiles across trials (rates are recomputed from the sums)."""
    merged: Dict[str, float] = {}
    for profile in profiles:
        for key, value in profile.items():
            if key.endswith("_per_sec"):
                continue  # recomputed below
            merged[key] = merged.get(key, 0.0) + float(value)
    wall = merged.get("wall_clock_s", 0.0)
    if wall > 0:
        rates = {
            "engine.events": "engine.events_per_sec",
            "wireless.frames_transmitted": "wireless.frames_per_sec",
            "wireless.deliveries": "wireless.deliveries_per_sec",
        }
        for source, rate in rates.items():
            if source in merged:
                merged[rate] = merged[source] / wall
    return merged


def format_profile(profile: Mapping[str, float], title: str = "profile") -> str:
    """Human-readable per-subsystem table of one profile mapping."""
    subsystems: Dict[str, List[str]] = {}
    for key in sorted(profile):
        prefix, _, metric = key.partition(".")
        if not metric:
            prefix, metric = "run", key
        value = profile[key]
        if metric.endswith("_s") or key in _TIME_KEYS:
            rendered = f"{value:.4f}s"
        elif metric.endswith("_per_sec"):
            rendered = f"{value:,.0f}/s"
        else:
            rendered = f"{value:,.0f}"
        subsystems.setdefault(prefix, []).append(f"    {metric:<28} {rendered:>14}")
    lines = [f"-- {title} --"]
    for prefix in sorted(subsystems):
        lines.append(f"  [{prefix}]")
        lines.extend(subsystems[prefix])
    return "\n".join(lines)
