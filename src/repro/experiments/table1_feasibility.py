"""Table I — the real-world feasibility study, reproduced as scripted scenarios.

The paper runs DAPES on five MacBooks in an outdoor campus setting (WiFi
range ≈ 50 m) under three scenarios (Fig. 8):

1. **Data sharing through a carrier** — peer A generates a collection; D
   fetches it from A and physically carries it to two other network
   segments where B and C download it.
2. **Data sharing through a repository** — C generates a collection; a
   stationary repository downloads it from C; A and B later download it
   from the repository at the same time.
3. **Data sharing among moving nodes** — A generates a collection and
   shares it with B, C and D while all four move around, with periods of
   complete disconnection and periods where everyone is within range.

Each scenario is a scripted topology of :mod:`repro.experiments.topology`
(``fig8_carrier``, ``fig8_repository``, ``fig8_moving``), and each Table I
row is one DAPES trial on it, built and run like every other experiment's
trial — so churn, faults, the invariant check, profiling and propagation
apply to Table I too.  Every scenario runs at the trial seed
(``base_seed``; the archived table uses 7).

:func:`aggregate_feasibility` derives the table's columns from the trial
result: the time until every downloader holds the collection, the number of
transmissions, and the system-load proxies defined in
:mod:`repro.core.stats` (memory overhead, context switches, system calls,
page faults).  Absolute OS-level numbers cannot be reproduced in a
simulation; the proxies are expected to preserve the *ordering* the paper
observes (scenario 3 fastest and cheapest in transmissions but heaviest in
memory because of the extra multi-hop state).  The page-fault proxy counts
only Data packets the packet store refused, which no honest run produces,
so that column reads ``0.0`` in every scenario.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.metrics import RunResult, SweepPoint
from repro.experiments.spec import ExperimentSpec, Variant, register_experiment

REAL_WORLD_WIFI_RANGE = 50.0
#: Table I row number → (row label, scripted topology).
SCENARIOS = {
    1: ("Scenario 1 (carrier)", "fig8_carrier"),
    2: ("Scenario 2 (repository)", "fig8_repository"),
    3: ("Scenario 3 (moving nodes)", "fig8_moving"),
}


def aggregate_feasibility(
    label: str,
    parameters: Dict[str, object],
    results: Sequence[RunResult],
    q: float,
) -> SweepPoint:
    """Sweep-scheduler aggregation hook: one Table I row from its one trial.

    The download time is the last downloader's (the run's duration when one
    never finished); memory is the largest node's, the other load proxies
    sum over every node.  Churn and fault counters ride along unchanged.
    """
    [result] = results  # the spec pins trials=1
    loads = list(result.node_loads.values())
    complete = not result.incomplete_nodes
    return SweepPoint(
        label=label,
        parameters=dict(parameters),
        download_time=max(result.download_times.values()) if complete else result.duration,
        transmissions=float(result.transmissions),
        completion_ratio=result.completion_ratio,
        trials=1,
        extras={
            "memory_overhead_mb": max(load["memory_overhead_mb"] for load in loads),
            "context_switches": float(sum(load["context_switches"] for load in loads)),
            "system_calls": float(sum(load["system_calls"] for load in loads)),
            "page_faults": float(sum(load["page_faults"] for load in loads)),
            **result.extras,
        },
    )


SPEC_TABLE1 = register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table I — real-world feasibility study",
        description="Three scripted scenarios mirroring Fig. 8; system-load columns are proxies.",
        artefacts=("Table I",),
        aliases=("tablei", "table-i"),
        variants=tuple(
            Variant(label=label, overrides={"topology": topology}, parameters={"scenario": scenario})
            for scenario, (label, topology) in SCENARIOS.items()
        ),
        # The real-world WiFi range; each scenario is one scripted trial.
        overrides={"wifi_range": REAL_WORLD_WIFI_RANGE, "trials": 1},
        aggregate_fn=aggregate_feasibility,
    )
)
