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
→ ``fig10``, ``tablei`` → ``table1``).  Every trial of every experiment is
one ``run_protocol_trial`` on a scenario from ``get_builder(protocol)`` —
Table I's Fig. 8 scenarios included, as the scripted ``fig8_carrier``,
``fig8_repository`` and ``fig8_moving`` topologies.  Beyond the paper, ``urban``
(``repro.experiments.urban``) sweeps obstacle density on the Manhattan
``urban_grid`` topology under unit-disk vs obstacle propagation.
``churn`` and ``flashcrowd`` (``repro.experiments.churn``) exercise
population dynamics — sustained Poisson churn with graceful/abrupt
departures, and burst arrivals into an initially empty swarm (see
:mod:`repro.churn`) — and ``faults`` and ``partition``
(``repro.experiments.faults``) exercise network faults — link flapping and
mid-run partitions with recovery metrics (see
:mod:`repro.faults`).

Results are first-class: :class:`ResultStore` persists runs under
content-addressed keys with metadata headers (``store.py``),
:class:`ResultSet` answers typed metric queries down to trial level
(``query.py``), and ``report.py`` renders Markdown/CSV/gnuplot exports and
three-way cross-run diffs (the ``report``/``diff``/``export``/``store``
CLI subcommands).  EXPERIMENTS.md documents the spec schema,
resume/caching semantics, the store layout and CLI examples.
"""

from repro._exports import lazy_exports

# The figure and workload modules register their specs when imported, so a
# fresh process (a pool or cluster worker included) knows every spec name.
# The order of these imports is the registration order that ``list`` and
# ``run all`` follow.
from repro.experiments import fig10_comparison  # noqa: F401
from repro.experiments import fig9_bitmaps  # noqa: F401
from repro.experiments import fig9_multihop  # noqa: F401
from repro.experiments import fig9_rpf  # noqa: F401
from repro.experiments import fig9_scaling  # noqa: F401
from repro.experiments import churn  # noqa: F401
from repro.experiments import faults  # noqa: F401
from repro.experiments import table1_feasibility  # noqa: F401
from repro.experiments import urban  # noqa: F401

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "fig10_comparison": ("improvements",),
    "metrics": ("RunResult", "SweepPoint", "SweepResult", "percentile"),
    "query": ("ResultSet",),
    "report": ("DiffReport", "diff", "to_csv", "to_gnuplot", "to_markdown", "to_text"),
    "runner": ("run_protocol_trial", "run_trials"),
    "store": ("ResultStore", "StoredRun", "TaskCache"),
    "scenario": (
        "ExperimentConfig",
        "Scenario",
        "ScenarioBuilder",
        "available_protocols",
        "get_builder",
        "register_protocol",
    ),
    "spec": (
        "Axis",
        "ExperimentSpec",
        "Variant",
        "available_experiments",
        "get_experiment",
        "register_experiment",
    ),
    "sweep": ("SweepRequest", "run_experiment", "run_suite"),
    "topology": ("Topology", "available_topologies", "get_topology", "register_topology"),
})
