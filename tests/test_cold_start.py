"""A process loads what its run uses: NumPy and the pool machinery on first use.

Every check runs in a fresh interpreter (the pytest process already holds
NumPy and ``multiprocessing``) and reads ``sys.modules`` after each stage —
a deterministic set check, no timing.  ``python tests/test_cold_start.py``
prints the same report for the CI log.
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


def cold_start_report() -> dict:
    """One fresh interpreter's ``{"stages": {stage: [optional modules loaded so far]}, "numpy_available"}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _STAGES], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return json.loads(child.stdout.splitlines()[-1])


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


if __name__ == "__main__":
    for stage_name, loaded in cold_start_report()["stages"].items():
        print(f"{stage_name:<34} {', '.join(loaded) or '-'}")
