"""Wiring check for the benchmark: ``pytest perfbench -q`` (not part of tier-1).

Runs every workload at ``tiny()`` scale, one repeat, both passes, and holds
what comes out against ``BENCHMARK.json`` and the benchmark contract's limits.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_contract_limits():
    sections = {key: [metric["name"] for metric in CONTRACT[key]] for key in ("end_to_end", "per_layer")}
    workloads = [workload["name"] for workload in CONTRACT["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(sections["end_to_end"]) <= 16
    assert 1 <= len(sections["per_layer"]) <= 128
    names = workloads + sections["end_to_end"] + sections["per_layer"]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in sections["end_to_end"]
    assert all(0 < metric["bound"] <= 0.25 for metric in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_the_contracts_names(tmp_path, trace, section):
    out = tmp_path / "set.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace), "--out", str(out)],
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    assert time.perf_counter() - start < 30
    results = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert list(results) == [workload["name"] for workload in CONTRACT["workloads"]]
    units = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
    for record in results.values():
        result = record["result"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    # The same set compared with itself is within every bound.
    subprocess.run([sys.executable, str(HERE / "compare.py"), str(out), str(out)], check=True,
                   stdout=subprocess.DEVNULL)
