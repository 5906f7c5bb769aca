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

This module recreates the movement patterns with scripted mobility and
reports, per scenario: the time until every downloader holds the collection,
the number of transmissions, and the system-load proxies defined in
:mod:`repro.core.stats` (memory overhead, context switches, system calls,
page faults).  Absolute OS-level numbers cannot be reproduced in a
simulation; the proxies are expected to preserve the *ordering* the paper
observes (scenario 3 fastest and cheapest in transmissions but heaviest in
memory because of the extra multi-hop state).

The study is registered as the ``table1`` spec with bespoke trial and
aggregation hooks (one scripted scenario per sweep point, each run by
:func:`run_feasibility_scenario`).  Each scenario's simulation seed
derives from ``config.base_seed`` (preset default 42).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.crypto.keys import KeyPair
from repro.crypto.trust import TrustAnchorStore
from repro.mobility import ScriptedMobility
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium
from repro.core import CollectionBuilder, build_dapes_peer, build_repository
from repro.experiments.metrics import RunResult, SweepPoint
from repro.experiments.scenario import ExperimentConfig, PRODUCER_IDENTITY
from repro.experiments.spec import ExperimentSpec, Variant, register_experiment

REAL_WORLD_WIFI_RANGE = 50.0
DEFAULT_FEASIBILITY_SEED = 7
SCENARIO_NAMES = {1: "Scenario 1 (carrier)", 2: "Scenario 2 (repository)", 3: "Scenario 3 (moving nodes)"}


@dataclass
class FeasibilityScenarioResult:
    """Raw outcome of one feasibility scenario."""

    scenario: int
    download_time: float
    all_complete: bool
    transmissions: int
    memory_overhead_mb: float
    context_switches: int
    system_calls: int
    page_faults: int

    def as_row(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "download_time_s": round(self.download_time, 1),
            "transmissions": self.transmissions,
            "memory_overhead_mb": round(self.memory_overhead_mb, 3),
            "context_switches": self.context_switches,
            "system_calls": self.system_calls,
            "page_faults": self.page_faults,
            "all_complete": self.all_complete,
        }


# ------------------------------------------------------ scenario scripts
def _scenario_carrier(mobility: ScriptedMobility):
    """Fig. 8a: D carries the collection from A's segment to B's and C's."""
    mobility.add_static_node("A", 0.0, 0.0)
    mobility.add_static_node("B", 150.0, 0.0)
    mobility.add_static_node("C", 150.0, 150.0)
    mobility.add_node(
        "D",
        [
            (0.0, 15.0, 0.0),     # next to A, fetching the collection
            (60.0, 15.0, 0.0),
            (100.0, 140.0, 0.0),  # walk to B's segment
            (160.0, 140.0, 0.0),
            (200.0, 140.0, 140.0),  # walk to C's segment
            (400.0, 140.0, 140.0),
        ],
    )
    return "A", ["B", "C", "D"], []


def _scenario_repository(mobility: ScriptedMobility):
    """Fig. 8b: the repo downloads from C; A and B download from the repo."""
    mobility.add_static_node("repo", 75.0, 75.0)
    mobility.add_node(
        "C",
        [
            (0.0, 80.0, 75.0),     # producer next to the repo
            (80.0, 80.0, 75.0),
            (120.0, 150.0, 150.0),  # then walks away
            (400.0, 150.0, 150.0),
        ],
    )
    mobility.add_node(
        "A",
        [
            (0.0, 0.0, 0.0),
            (60.0, 0.0, 0.0),
            (110.0, 70.0, 75.0),   # arrives at the repo
            (400.0, 70.0, 75.0),
        ],
    )
    mobility.add_node(
        "B",
        [
            (0.0, 0.0, 150.0),
            (60.0, 0.0, 150.0),
            (115.0, 75.0, 80.0),   # arrives at the repo at about the same time
            (400.0, 75.0, 80.0),
        ],
    )
    return "C", ["A", "B"], ["repo"]


def _scenario_moving(mobility: ScriptedMobility):
    """Fig. 8c: four peers move, sometimes disconnected, sometimes all in range."""
    centre = (75.0, 75.0)
    corners = {
        "A": (0.0, 0.0),
        "B": (150.0, 0.0),
        "C": (150.0, 150.0),
        "D": (0.0, 150.0),
    }
    for node_id, (x, y) in corners.items():
        mobility.add_node(
            node_id,
            [
                (0.0, x, y),            # start isolated in a corner
                (20.0, x, y),
                (50.0, *centre),        # first gathering: everyone in range
                (90.0, *centre),
                (120.0, x, y),          # disperse again
                (150.0, x, y),
                (180.0, *centre),       # second gathering
                (400.0, *centre),
            ],
        )
    return "A", ["B", "C", "D"], []


_SCENARIO_BUILDERS = {1: _scenario_carrier, 2: _scenario_repository, 3: _scenario_moving}


def run_feasibility_scenario(
    config: ExperimentConfig, scenario: int, seed: int = DEFAULT_FEASIBILITY_SEED
) -> FeasibilityScenarioResult:
    """Run one of the three scenarios and collect Table I metrics.

    The simulation seed is ``seed + scenario`` (each scenario gets its own
    deterministic world, as in the original study).
    """
    if scenario not in _SCENARIO_BUILDERS:
        raise ValueError("scenario must be 1, 2 or 3")
    sim = Simulator(seed=seed + scenario)
    mobility = ScriptedMobility()
    producer_id, downloader_ids, repository_ids = _SCENARIO_BUILDERS[scenario](mobility)

    medium = WirelessMedium(
        sim, mobility, ChannelConfig(wifi_range=REAL_WORLD_WIFI_RANGE, loss_rate=config.loss_rate)
    )
    producer_key = KeyPair.generate(PRODUCER_IDENTITY, seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(producer_key)
    dapes_config = config.dapes

    nodes = {}
    for node_id in mobility.node_ids:
        if node_id in repository_ids:
            nodes[node_id] = build_repository(sim, medium, node_id, config=dapes_config, trust=trust)
        else:
            key = producer_key if node_id == producer_id else None
            nodes[node_id] = build_dapes_peer(
                sim, medium, node_id, config=dapes_config, trust=trust, key=key
            )

    collection = (
        CollectionBuilder(
            f"feasibility-{scenario}", 1533783192, packet_size=config.packet_size,
            producer=PRODUCER_IDENTITY,
        )
    )
    for index in range(config.num_files):
        collection.add_file(f"image-{index:03d}", size_bytes=config.file_size)
    collection = collection.build()
    metadata = nodes[producer_id].peer.publish_collection(collection)
    for node_id in downloader_ids:
        nodes[node_id].peer.join(metadata.collection)

    expected = set(downloader_ids) | set(repository_ids)
    completed: set = set()

    def _on_complete(peer, collection_id, when) -> None:
        completed.add(peer.node_id)
        if completed >= expected:
            sim.stop()

    for node_id in expected:
        nodes[node_id].peer.on_collection_complete(_on_complete)

    for node in nodes.values():
        node.start()
    sim.run(until=config.max_duration)

    completion_times = [
        nodes[node_id].peer.download_time(metadata.collection)
        for node_id in expected
    ]
    all_complete = all(time is not None for time in completion_times)
    download_time = max(
        (time for time in completion_times if time is not None), default=config.max_duration
    )
    if not all_complete:
        download_time = sim.now

    participant_loads = [nodes[node_id].peer.load for node_id in nodes]
    memory = max(load.memory_overhead_mb for load in participant_loads)
    return FeasibilityScenarioResult(
        scenario=scenario,
        download_time=download_time,
        all_complete=all_complete,
        transmissions=medium.stats.frames_transmitted,
        memory_overhead_mb=memory,
        context_switches=sum(load.context_switches for load in participant_loads),
        system_calls=sum(load.system_calls for load in participant_loads),
        page_faults=sum(load.page_faults for load in participant_loads),
    )


# ----------------------------------------------------------- spec hooks
def run_feasibility_trial(
    protocol: str,
    config: ExperimentConfig,
    seed: int,
    parameters: Dict[str, object],
) -> RunResult:
    """Sweep-scheduler trial hook: one scripted scenario per sweep point."""
    outcome = run_feasibility_scenario(config, parameters["scenario"], seed)
    return RunResult(
        protocol=protocol,
        seed=seed,
        parameters=dict(parameters),
        transmissions=outcome.transmissions,
        duration=outcome.download_time,
        extras={
            "download_time": outcome.download_time,
            "all_complete": 1.0 if outcome.all_complete else 0.0,
            "memory_overhead_mb": outcome.memory_overhead_mb,
            "context_switches": float(outcome.context_switches),
            "system_calls": float(outcome.system_calls),
            "page_faults": float(outcome.page_faults),
        },
    )


def aggregate_feasibility(
    label: str,
    parameters: Dict[str, object],
    results: Sequence[RunResult],
    q: float,
) -> SweepPoint:
    """Sweep-scheduler aggregation hook: Table I rows are single-trial."""
    result = results[0]
    extras = dict(result.extras)
    download_time = extras.pop("download_time")
    all_complete = extras.pop("all_complete")
    return SweepPoint(
        label=label,
        parameters=dict(parameters),
        download_time=download_time,
        transmissions=float(result.transmissions),
        completion_ratio=all_complete,
        trials=len(results),
        extras=extras,
    )


def _feasibility_config(config: ExperimentConfig) -> ExperimentConfig:
    """Pin the real-world WiFi range; each scenario is one scripted trial."""
    return config.with_overrides(wifi_range=REAL_WORLD_WIFI_RANGE, trials=1)


SPEC_TABLE1 = register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table I — real-world feasibility study",
        description="Three scripted scenarios mirroring Fig. 8; system-load columns are proxies.",
        artefacts=("Table I",),
        aliases=("tablei", "table-i"),
        variants=tuple(
            Variant(label=SCENARIO_NAMES[scenario], parameters={"scenario": scenario})
            for scenario in (1, 2, 3)
        ),
        trial_fn=run_feasibility_trial,
        aggregate_fn=aggregate_feasibility,
        config_transform=_feasibility_config,
    )
)
