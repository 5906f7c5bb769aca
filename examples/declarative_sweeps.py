#!/usr/bin/env python3
"""Declarative sweeps: register a custom experiment, run a suite on one pool.

This example shows the three layers of the sweep API:

1. **Registry** — every paper artefact is a registered ``ExperimentSpec``
   (``available_experiments()`` lists them; ``run_experiment("fig9a")``
   runs one).
2. **Custom specs** — a new experiment is just data: axes x variants plus
   config overrides.  Here we sweep DAPES across every registered topology
   (quadrant / clusters / corridor) at two WiFi ranges.
3. **Suite scheduling + persistence** — ``run_suite`` flattens several
   experiments into one task grid over a single process pool, and with
   ``store`` set every finished task is persisted so an interrupted run
   resumes where it stopped (and every aggregate is saved in the store).

Run it with::

    python examples/declarative_sweeps.py
"""

import tempfile
from pathlib import Path

from repro.experiments import (
    Axis,
    ExperimentConfig,
    ExperimentSpec,
    ResultStore,
    SweepRequest,
    Variant,
    available_experiments,
    available_topologies,
    get_experiment,
    register_experiment,
    run_suite,
    to_text,
)

# A brand-new experiment, declared rather than coded: one labelled variant
# per topology, swept over two WiFi ranges.
TOPOLOGY_SWEEP = register_experiment(
    ExperimentSpec(
        name="topology-sweep",
        title="DAPES across every registered topology",
        description="The paper's protocol on quadrant, clusters and corridor layouts.",
        axes=(Axis(name="wifi_range", values=(60.0, 80.0), config_key="wifi_range"),),
        variants=tuple(
            Variant(
                label=f"DAPES @ {topology}",
                overrides={"topology": topology},
                parameters={"topology": topology},
            )
            for topology in available_topologies()
        ),
    )
)


def main() -> None:
    print("registered experiments:", ", ".join(available_experiments()))

    config = ExperimentConfig.tiny().with_overrides(trials=2)
    store = ResultStore(Path(tempfile.mkdtemp(prefix="sweeps-")))

    # One task grid: the custom topology sweep plus the paper's Fig. 10
    # comparison, fanned out together over a single persistent pool.
    requests = [
        SweepRequest(spec=TOPOLOGY_SWEEP, config=config),
        SweepRequest(
            spec=get_experiment("fig10"), config=config, axes={"wifi_range": (80.0,)}
        ),
    ]
    topology_result, comparison_result = run_suite(requests, workers=4, store=store)

    print()
    print(to_text(topology_result))
    print()
    print(to_text(comparison_result))

    cached = len(list(store.root.glob("tasks/*/task-*.json")))
    print(f"\n{cached} per-task results persisted under {store.root}")
    print("re-running the same suite now costs nothing:")
    run_suite(requests, workers=4, store=store)  # every task resumes from cache
    print("done (all tasks came from the cache)")


if __name__ == "__main__":
    main()
