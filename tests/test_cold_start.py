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

#: What a run that never vectorizes and never opens a pool must not load.
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
trial = run_protocol_trial("dapes", urban.with_overrides(profile=True), 1)
assert trial.profile["arrays.numpy_loaded"] == 0.0
stage("urban_grid + obstacle trial")
run_experiment("fig9a", tiny.with_overrides(trials=1), axes={"wifi_range": (80.0,)}, workers=1)
stage("serial sweep")
forced = run_protocol_trial("dapes", tiny.with_overrides(neighbor_index="grid_array", profile=True), 1)
assert forced.profile["arrays.numpy_loaded"] == float(numpy_available())
stage("grid_array trial")
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
    before_forcing = {
        stage: loaded for stage, loaded in report["stages"].items() if stage != "grid_array trial"
    }
    assert before_forcing == {stage: [] for stage in before_forcing}


def test_forced_array_index_loads_numpy_and_only_numpy(report):
    expected = ["numpy"] if report["numpy_available"] else []
    assert report["stages"]["grid_array trial"] == expected


if __name__ == "__main__":
    for stage_name, loaded in cold_start_report()["stages"].items():
        print(f"{stage_name:<34} {', '.join(loaded) or '-'}")
