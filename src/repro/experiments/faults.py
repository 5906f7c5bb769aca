"""Fault specs: protocol resilience under deterministic network faults.

Not paper figures — the robustness artefacts the ROADMAP names as an open
item.  Two specs, both with the protocol hardening switched on (jittered
retransmission backoff, dark-neighbour fallback); like every trial, each
ends with the invariant check of :mod:`repro.faults.invariants`:

* ``faults`` — DAPES under sustained link flapping: pairwise links drop
  into loss episodes and recover, sweeping the mean outage length.  The
  curve shows how download time degrades as outages lengthen relative to
  the retransmission/backoff machinery.
* ``partition`` — a membership partition splits the population mid-run and
  heals after a while, sweeping the partition duration.  Recovery extras
  (``recovery.time_to_recover_mean``/``_max``,
  ``recovery.goodput_under_fault``) quantify how fast the swarm re-knits
  after the heal.

Fault counters (``faults.*``) sum across trials; recovery latencies
aggregate mean-of-means / max-of-maxes (see
:func:`repro.experiments.metrics.aggregate_trials`).  Axis values reach the
model through the ``fault_`` override prefix
(:meth:`ExperimentConfig.with_overrides`), so CLI ``--axis
mean_down=2,5,10`` sweeps work like any other axis.
"""

from __future__ import annotations

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

#: Mean link outage lengths (seconds) swept by the ``faults`` spec.
DEFAULT_OUTAGE_LENGTHS = (2.0, 5.0, 10.0)

#: Partition durations (seconds) swept by the ``partition`` spec.
DEFAULT_PARTITION_DURATIONS = (15.0, 30.0, 60.0)

#: The resilience-hardening switches both specs run with.
HARDENING = {
    "dapes_retransmit_jitter": 0.3,
    "dapes_dark_neighbor_fallback": True,
}

SPEC_FAULTS = register_experiment(
    ExperimentSpec(
        name="faults",
        title="Faults — download time vs mean link outage length",
        description=(
            "DAPES under sustained link flapping: pairwise links alternate "
            "clean stretches and outage episodes; sweeps the mean outage "
            "length with hardening enabled."
        ),
        axes=(
            Axis(
                name="mean_down",
                values=DEFAULT_OUTAGE_LENGTHS,
                config_key="fault_mean_down",
            ),
        ),
        variants=(Variant(label="DAPES mean_down={mean_down}s"),),
        overrides=dict(HARDENING, faults="link_flap"),
    )
)

SPEC_PARTITION = register_experiment(
    ExperimentSpec(
        name="partition",
        title="Partition — download time vs partition duration",
        description=(
            "A membership partition splits the population at t=30s and "
            "heals after the swept duration; recovery extras record how "
            "fast cross-boundary delivery resumes after the heal."
        ),
        axes=(
            Axis(
                name="duration",
                values=DEFAULT_PARTITION_DURATIONS,
                config_key="fault_duration",
            ),
        ),
        variants=(Variant(label="DAPES partition={duration}s"),),
        overrides=dict(HARDENING, faults="partition", fault_at=30.0),
    )
)
