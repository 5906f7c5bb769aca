"""Throughput scaling: simulator events/sec as the node population grows.

Not a paper figure — a first-class *performance* artefact.  The ROADMAP's
perf trajectory tracks events/sec on one fixed benchmark config (fig9a);
this spec makes the other axis visible: how throughput scales with node
count.  Per-trial profiles are always collected (the ``profile`` override
below), so ``profile.engine.events_per_sec`` is a queryable metric::

    repro-experiments run scaling --store
    repro-experiments export <key> --metric profile.engine.events_per_sec --level trial

The swept axis scales the preset's mobile-downloader population, the group
that dominates both medium traffic and neighbor-query load; the resolved
count is recorded under ``mobile_downloaders`` in every row.  Wall-clock
derived metrics vary machine to machine — compare scaling *shapes* rather
than absolute rates.
"""

from __future__ import annotations

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

#: Multipliers over the preset's mobile-downloader count (small preset: 6,
#: so the default sweep runs 6/12/24/48 mobile downloaders).
DEFAULT_NODE_FACTORS = (1, 2, 4, 8)

SPEC_SCALING = register_experiment(
    ExperimentSpec(
        name="scaling",
        title="Throughput scaling — events/sec vs node count",
        description=(
            "Simulator throughput (profile.engine.events_per_sec) as the "
            "mobile-downloader population scales; the perf counterpart to "
            "the paper-figure specs."
        ),
        axes=(
            Axis(
                name="node_factor",
                values=DEFAULT_NODE_FACTORS,
                scale_by="mobile_downloaders",
            ),
        ),
        variants=(Variant(label="Mobile downloaders={mobile_downloaders}"),),
        # Profiles are the point of this spec: events/sec lives there.
        # (trials stays CLI-controllable; spec overrides would shadow it.)
        overrides={"profile": True},
    )
)
