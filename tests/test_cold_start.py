"""A process loads what its run uses: NumPy and the pool machinery on first use,
and a protocol stack only when a scenario builder builds a trial of it.

Every check runs in a fresh interpreter (the pytest process already holds
NumPy, ``multiprocessing`` and every stack) and reads ``sys.modules`` after
each stage — a deterministic set check, no timing.  ``python
tests/test_cold_start.py`` prints the same report for the CI log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a run that never opens a pool must not load.
OPTIONAL = ("numpy", "multiprocessing", "concurrent.futures.process")

_STAGES = """
import json, sys
OPTIONAL = %r
report = {}
def stage(name):
    report[name] = [module for module in OPTIONAL if module in sys.modules]

import repro.experiments
from repro.arrays import numpy_available
from repro.experiments import ExperimentConfig, run_experiment, run_protocol_trial
stage("import repro.experiments")
import repro.experiments.__main__, repro.cluster.worker
stage("CLI and cluster worker imports")
tiny = ExperimentConfig.tiny()
run_protocol_trial("dapes", tiny, 1)
stage("dapes trial")
run_protocol_trial("bithoc", tiny, 1)
run_protocol_trial("ekta", tiny, 1)
stage("ip trials")
urban = tiny.with_overrides(topology="urban_grid", propagation="obstacle")
run_protocol_trial("dapes", urban, 1)
stage("urban_grid + obstacle trial")
run_protocol_trial("dapes", tiny.with_overrides(propagation="log_distance"), 1)
stage("log_distance trial")
run_experiment("fig9a", tiny.with_overrides(trials=1), axes={"wifi_range": (80.0,)}, workers=1)
stage("serial sweep")
if numpy_available():
    from repro.mobility import StaticPlacement
    StaticPlacement({"a": (0.0, 0.0)}).positions_array(("a",), 0.0)
stage("positions_array call")
print(json.dumps({"stages": report, "numpy_available": numpy_available()}))
""" % (OPTIONAL,)


def _child(script: str) -> str:
    """The last line ``script`` prints in a fresh interpreter that imports from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return child.stdout.splitlines()[-1]


def cold_start_report() -> dict:
    """One fresh interpreter's ``{"stages": {stage: [optional modules loaded so far]}, "numpy_available"}``."""
    return json.loads(_child(_STAGES))


@pytest.fixture(scope="module")
def report() -> dict:
    return cold_start_report()


def test_runs_that_never_vectorize_load_nothing_optional(report):
    runs = {
        stage: loaded for stage, loaded in report["stages"].items() if stage != "positions_array call"
    }
    assert "log_distance trial" in runs
    assert runs == {stage: [] for stage in runs}


def test_positions_array_loads_numpy_and_only_numpy(report):
    expected = ["numpy"] if report["numpy_available"] else []
    assert report["stages"]["positions_array call"] == expected


#: The protocol stacks and the engine below them: a process that only plans,
#: stores or submits a sweep loads none of these packages.
STACKS = (
    "repro.simulation", "repro.mobility", "repro.ndn", "repro.crypto",
    "repro.ip", "repro.manet", "repro.baselines",
)

_PLAN = """
from repro.cluster import ClusterClient, build_submission_payload
from repro.experiments import ExperimentConfig, SweepRequest, get_experiment
from repro.experiments.sweep import task_listing
config = ExperimentConfig.small()
assert task_listing([SweepRequest(get_experiment(name), config) for name in ("fig9a", "fig9b")])
build_submission_payload(["fig9a", "fig9b"], config)
ClusterClient()
stage("plan fig9a+fig9b, submit payload")
"""

_BUILD = """
from repro.experiments import ExperimentConfig, get_builder
for protocol in %r:
    get_builder(protocol).build(ExperimentConfig.tiny(), 1)
stage(%r)
"""

_MODULE_STAGES = """
import json, sys
report = {}
def stage(name):
    report[name] = sorted(m for m in sys.modules if m.startswith("repro.") or m == "socketserver")
%s
print(json.dumps(report))
"""

#: Each run is one fresh interpreter; the stages of a run share it, in order.
MODULE_RUNS = (
    _PLAN + _BUILD % (("dapes",), "then a dapes build"),
    _BUILD % (("bithoc",), "bithoc build"),
    _BUILD % (("ekta",), "ekta build"),
)

#: What each IP baseline alone loads of the other's stack: nothing.
OTHER_BASELINE = {
    "bithoc build": ("repro.baselines.ekta", "repro.baselines.dht", "repro.manet.dsr", "repro.ip.udp"),
    "ekta build": ("repro.baselines.bithoc", "repro.manet.dsdv", "repro.ip.tcp"),
}


def module_report() -> dict:
    """``{stage: sorted repro modules (and socketserver) loaded so far}`` over :data:`MODULE_RUNS`."""
    report = {}
    for script in MODULE_RUNS:
        report.update(json.loads(_child(_MODULE_STAGES % script)))
    return report


def under(modules, package: str) -> list:
    return [module for module in modules if module == package or module.startswith(package + ".")]


@pytest.fixture(scope="module")
def modules() -> dict:
    return module_report()


def test_planning_and_submitting_load_no_protocol_stack(modules):
    loaded = modules["plan fig9a+fig9b, submit payload"]
    assert [module for package in STACKS for module in under(loaded, package)] == []
    assert under(loaded, "repro.core") == ["repro.core", "repro.core.config"]
    assert set(under(loaded, "repro.wireless")) <= {
        "repro.wireless", "repro.wireless.channel", "repro.wireless.propagation",
        "repro.wireless.environment",
    }
    for server_side in ("repro.cluster.coordinator", "repro.cluster.leases", "repro.cluster.worker", "socketserver"):
        assert server_side not in loaded


def test_a_dapes_build_loads_no_ip_stack(modules):
    loaded = modules["then a dapes build"]
    assert under(loaded, "repro.ndn") and under(loaded, "repro.crypto")
    for package in ("repro.baselines", "repro.ip", "repro.manet"):
        assert under(loaded, package) == []


def test_an_ip_build_loads_no_ndn_stack(modules):
    for stage in OTHER_BASELINE:
        loaded = modules[stage]
        assert under(loaded, "repro.baselines") and under(loaded, "repro.manet"), stage
        assert under(loaded, "repro.ndn") == [] and under(loaded, "repro.crypto") == [], stage
        assert set(under(loaded, "repro.core")) <= {
            "repro.core", "repro.core.bitmap", "repro.core.config", "repro.core.stats",
        }, stage


@pytest.mark.parametrize("stage", sorted(OTHER_BASELINE))
def test_an_ip_build_loads_only_its_own_baseline(modules, stage):
    assert [module for module in OTHER_BASELINE[stage] if module in modules[stage]] == []


if __name__ == "__main__":
    for stage_name, loaded in cold_start_report()["stages"].items():
        print(f"{stage_name:<34} {', '.join(loaded) or '-'}")
    for stage_name, loaded in module_report().items():
        stacks = [package for package in STACKS + ("repro.core",) if under(loaded, package)]
        print(f"{stage_name:<34} {len(loaded)} repro modules; packages: {', '.join(stacks) or '-'}")
