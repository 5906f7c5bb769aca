"""Experiment harness: regenerates every figure and table of the paper.

Every paper artefact is a registered, declarative :class:`ExperimentSpec`
(name, sweep axes, labelled variants, protocol, config overrides) executed
by the whole-grid sweep scheduler in :mod:`repro.experiments.sweep` —
``run_experiment("fig9a")`` from Python, or ``python -m repro.experiments
run fig9a`` (also installed as ``repro-experiments``) from the command
line.  The mapping between paper artefacts and registered experiments is:

==============  =============================================  ==========  ======================
Paper artefact  What it shows                                  Experiment  Module
==============  =============================================  ==========  ======================
Fig. 9a         download time vs WiFi range per RPF variant    ``fig9a``   ``fig9_rpf``
Fig. 9b         transmissions, RPF variants with/without PEBA  ``fig9b``   ``fig9_rpf``
Fig. 9c         download time, bitmaps exchanged before data   ``fig9c``   ``fig9_bitmaps``
Fig. 9d         download time, bitmaps interleaved with data   ``fig9d``   ``fig9_bitmaps``
Fig. 9e         download time vs number of files               ``fig9e``   ``fig9_scaling``
Fig. 9f         download time vs file size                     ``fig9f``   ``fig9_scaling``
Fig. 9g         download time vs forwarding probability        ``fig9gh``  ``fig9_multihop``
Fig. 9h         transmissions vs forwarding probability        ``fig9gh``  ``fig9_multihop``
Fig. 10a        download time, DAPES vs Bithoc vs Ekta         ``fig10``   ``fig10_comparison``
Fig. 10b        transmissions, DAPES vs Bithoc vs Ekta         ``fig10``   ``fig10_comparison``
Table I         real-world feasibility scenarios               ``table1``  ``table1_feasibility``
==============  =============================================  ==========  ======================

Aliases resolve too (``fig9g``/``fig9h`` → ``fig9gh``, ``fig10a``/``fig10b``
→ ``fig10``, ``tablei`` → ``table1``).  Beyond the paper, ``urban``
(``repro.experiments.urban``) sweeps obstacle density on the Manhattan
``urban_grid`` topology under unit-disk vs obstacle propagation.
``churn`` and ``flashcrowd`` (``repro.experiments.churn``) exercise
population dynamics — sustained Poisson churn with graceful/abrupt
departures, and burst arrivals into an initially empty swarm (see
:mod:`repro.churn`) — and ``faults`` and ``partition``
(``repro.experiments.faults``) exercise network faults — link flapping and
mid-run partitions with invariant monitoring and recovery metrics (see
:mod:`repro.faults`).

Results are first-class: :class:`ResultStore` persists runs under
content-addressed keys with metadata headers (``store.py``),
:class:`ResultSet` answers typed metric queries down to trial level
(``query.py``), and ``report.py`` renders Markdown/CSV/gnuplot exports and
three-way cross-run diffs (the ``report``/``diff``/``export``/``store``
CLI subcommands).  EXPERIMENTS.md documents the spec schema,
resume/caching semantics, the store layout and CLI examples.
"""

from repro.experiments.fig10_comparison import SPEC_FIG10, improvements
from repro.experiments.fig9_bitmaps import SPEC_FIG9C, SPEC_FIG9D
from repro.experiments.fig9_multihop import SPEC_FIG9GH
from repro.experiments.fig9_rpf import SPEC_FIG9A, SPEC_FIG9B
from repro.experiments.fig9_scaling import SPEC_FIG9E, SPEC_FIG9F
from repro.experiments.metrics import RunResult, SweepPoint, SweepResult, percentile
from repro.experiments.query import ResultSet
from repro.experiments.report import DiffReport, diff, to_csv, to_gnuplot, to_markdown, to_text
from repro.experiments.runner import run_protocol_trial, run_trials
from repro.experiments.store import ResultStore, StoredRun, TaskCache
from repro.experiments.scenario import (
    ExperimentConfig,
    Scenario,
    ScenarioBuilder,
    available_protocols,
    get_builder,
    register_protocol,
)
from repro.experiments.spec import (
    Axis,
    ExperimentSpec,
    Variant,
    available_experiments,
    get_experiment,
    register_experiment,
)
from repro.experiments.sweep import SweepRequest, run_experiment, run_suite
from repro.experiments.churn import SPEC_CHURN, SPEC_FLASHCROWD
from repro.experiments.faults import SPEC_FAULTS, SPEC_PARTITION
from repro.experiments.table1_feasibility import SPEC_TABLE1, run_feasibility_scenario
from repro.experiments.urban import SPEC_URBAN
from repro.experiments.topology import (
    Topology,
    available_topologies,
    get_topology,
    register_topology,
)

__all__ = [
    "Axis",
    "DiffReport",
    "ExperimentConfig",
    "ExperimentSpec",
    "ResultSet",
    "ResultStore",
    "RunResult",
    "Scenario",
    "ScenarioBuilder",
    "StoredRun",
    "SweepPoint",
    "SweepRequest",
    "SweepResult",
    "TaskCache",
    "Topology",
    "Variant",
    "available_experiments",
    "available_protocols",
    "available_topologies",
    "diff",
    "get_builder",
    "get_experiment",
    "get_topology",
    "improvements",
    "percentile",
    "register_experiment",
    "register_protocol",
    "register_topology",
    "run_experiment",
    "run_feasibility_scenario",
    "run_protocol_trial",
    "run_suite",
    "run_trials",
    "to_csv",
    "to_gnuplot",
    "to_markdown",
    "to_text",
]
