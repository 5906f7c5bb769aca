"""Churn specs: protocol performance under population dynamics.

Not paper figures — the robustness artefacts the ROADMAP names as an open
item.  Two specs:

* ``churn`` — DAPES under sustained Poisson churn, sweeping the mean online
  session length.  Shorter sessions mean more mid-transfer departures (30 %
  of them abrupt kills by default), so the curve shows how download time
  degrades as the population destabilises.
* ``flashcrowd`` — the millions-of-users stress proxy: every downloader
  starts offline and arrives in bursts, sweeping the burst count (more
  bursts = the same crowd arriving more gradually).

Both record churn counters (``churn.arrivals``, ``churn.departures``,
``churn.abrupt_kills``, ``churn.orphaned_sends``,
``churn.redundant_events``) in each point's extras,
summed across trials.  Axis values reach the model through the ``churn_``
override prefix (:meth:`ExperimentConfig.with_overrides`), so CLI
``--axis mean_session=30,60`` sweeps work like any other axis.
"""

from __future__ import annotations

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

#: Mean online session lengths (seconds) swept by the ``churn`` spec.
DEFAULT_SESSION_LENGTHS = (60.0, 120.0, 240.0)

#: Burst counts swept by the ``flashcrowd`` spec.
DEFAULT_BURST_COUNTS = (1, 3, 6)

SPEC_CHURN = register_experiment(
    ExperimentSpec(
        name="churn",
        title="Churn — download time vs mean session length",
        description=(
            "DAPES under sustained Poisson churn: nodes alternate online "
            "sessions and offline gaps, 30% of departures abrupt kills; "
            "sweeps the mean session length."
        ),
        axes=(
            Axis(
                name="mean_session",
                values=DEFAULT_SESSION_LENGTHS,
                config_key="churn_mean_session",
            ),
        ),
        variants=(Variant(label="DAPES mean_session={mean_session}s"),),
        overrides={"churn": "poisson"},
    )
)

SPEC_FLASHCROWD = register_experiment(
    ExperimentSpec(
        name="flashcrowd",
        title="Flash crowd — download time vs arrival burst count",
        description=(
            "The disaster-scenario stress proxy: every downloader starts "
            "offline and arrives in jittered bursts; sweeps the number of "
            "arrival waves."
        ),
        axes=(
            Axis(
                name="bursts",
                values=DEFAULT_BURST_COUNTS,
                config_key="churn_bursts",
            ),
        ),
        variants=(Variant(label="DAPES bursts={bursts}"),),
        overrides={"churn": "flashcrowd"},
    )
)
