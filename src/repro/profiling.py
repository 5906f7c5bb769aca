"""Per-run profiles: every layer's own counters, merged into one mapping.

Each layer that keeps counters reports them through ``metrics() ->
Dict[str, float]`` under its own prefix (``engine.*``, ``wireless.*`` with
the medium's ``spatial.*`` / ``propagation.*`` / ``mobility.*``, and
``churn.*`` and ``faults.*`` / ``recovery.*`` when a run has them).  A profile is ``wall_clock_s`` merged with those dicts; trials that
set :attr:`ExperimentConfig.profile` carry one in :attr:`RunResult.profile`,
outside result equality, since wall-clock time is not deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def collect_run_profile(wall_clock_s: float, *layers) -> Dict[str, float]:
    """``wall_clock_s`` merged with each layer's ``metrics()`` (``None`` skipped).

    The hot paths keep the counters anyway: profiling costs this sweep only.
    """
    profile: Dict[str, float] = {"wall_clock_s": wall_clock_s}
    for layer in layers:
        if layer is not None:
            profile.update(layer.metrics())
    return profile


# ------------------------------------------------------------- aggregation
def combine_counter(key: str, values: Sequence[float]) -> float:
    """One counter across the trials reporting it: ``_max`` takes the worst
    trial, ``_mean`` and the goodput rate average, every other counter sums."""
    if key.endswith("_max"):
        return float(max(values))
    if key.endswith("_mean") or key == "recovery.goodput_under_fault":
        return float(sum(values) / len(values))
    return float(sum(values))


def merge_profiles(profiles: List[Mapping[str, float]]) -> Dict[str, float]:
    """Combine profiles across trials, key by key (:func:`combine_counter`)."""
    keys = dict.fromkeys(key for profile in profiles for key in profile)
    return {
        key: combine_counter(key, [profile[key] for profile in profiles if key in profile])
        for key in keys
    }


def format_profile(profile: Mapping[str, float], title: str = "profile") -> str:
    """Per-subsystem table: counts as integers, the rest to 4 significant digits."""
    subsystems: Dict[str, List[str]] = {}
    for key in sorted(profile):
        prefix, _, metric = key.partition(".")
        if not metric:
            prefix, metric = "run", key
        value = float(profile[key])
        rendered = f"{value:,.0f}" if value.is_integer() else f"{value:.4g}"
        if metric.endswith("_s"):
            rendered += "s"
        subsystems.setdefault(prefix, []).append(f"    {metric:<28} {rendered:>14}")
    lines = [f"-- {title} --"]
    for prefix in sorted(subsystems):
        lines.append(f"  [{prefix}]")
        lines.extend(subsystems[prefix])
    return "\n".join(lines)
