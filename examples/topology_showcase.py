#!/usr/bin/env python3
"""Run DAPES over every registered topology with the builder registry.

The scenario layer separates *where nodes are* (the topology registry:
``quadrant`` is the paper's Fig. 7 layout, ``clusters`` models partitioned
disaster zones, ``corridor`` a sparse relay chain) from *what runs on them*
(the protocol registry: ``dapes``, ``bithoc``, ``ekta``).  This example
sweeps one protocol across all topologies — the same pattern works for any
protocol/topology pair, and ``run_trials(..., workers=N)`` fans repeated
trials out over N processes.

Run it with::

    python examples/topology_showcase.py
"""

from repro.experiments import (
    ExperimentConfig,
    available_protocols,
    available_topologies,
    run_trials,
)


def main() -> None:
    print(f"registered protocols : {', '.join(available_protocols())}")
    print(f"registered topologies: {', '.join(available_topologies())}")
    print()

    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=180.0)

    print(f"{'topology':>15} | {'download time':>13} | {'transmissions':>13} | {'completion':>10}")
    print("-" * 63)
    for topology in available_topologies():
        point = run_trials(
            "dapes",
            config.with_overrides(topology=topology),
            label=f"DAPES/{topology}",
            parameters={"topology": topology},
            workers=2,  # trials run on a process pool; results match workers=1 exactly
        )
        print(
            f"{topology:>15} | {point.download_time:>12.1f}s | {point.transmissions:>13.0f} "
            f"| {point.completion_ratio:>9.0%}"
        )

    print()
    print("The clustered and corridor layouts stress multi-hop forwarding and")
    print("data carriers far harder than the paper's quadrant topology: expect")
    print("longer download times at equal workload.")


if __name__ == "__main__":
    main()
