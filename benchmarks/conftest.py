"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's figures or tables at a reduced
scale (see EXPERIMENTS.md for the scaling rationale and for paper-scale
instructions).  The reduced scale keeps the whole harness runnable in a few
minutes on a laptop while preserving the qualitative shape of every result:
who wins, how curves move with WiFi range, and where the trade-offs sit.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.experiments import ExperimentConfig, run_experiment, to_text

# WiFi ranges swept by the reduced-scale harness (paper: 20-100 m).
BENCH_WIFI_RANGES = (40.0, 80.0)


def run_sweep(benchmark, experiment, config, axes=None):
    """Run a registered experiment (or ad-hoc spec) under the benchmark fixture.

    Every figure benchmark goes through the declarative sweep scheduler —
    the same path as ``python -m repro.experiments run`` — so the archived
    numbers and the CLI agree by construction.
    """
    return benchmark.pedantic(
        lambda: run_experiment(experiment, config, axes=axes), rounds=1, iterations=1
    )


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Reduced-scale configuration shared by every figure benchmark."""
    return ExperimentConfig.small().with_overrides(trials=2, max_duration=400.0)


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    """Single-trial configuration for the heavier sweeps (9e/9f, comparisons)."""
    return ExperimentConfig.small().with_overrides(trials=1, max_duration=400.0)


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--write-bench",
        action="store_true",
        default=False,
        help="archive each benchmark's table and BENCH_<slug>.json under "
             "benchmark_results/ (default: print only, leave the tree clean)",
    )


@pytest.fixture
def report(request):
    """``report(result, slug=None)``: print, and archive on request.

    Always prints the experiment's rows (``pytest -s`` shows them inline).
    Under ``--write-bench`` it also archives them under benchmark_results/:
    the ``<slug>.txt`` tables are what EXPERIMENTS.md's measured numbers
    come from, and ``BENCH_<slug>.json`` holds the same rows machine-readably
    (plus the simulated event count) for ``repro-experiments diff``.  Both
    are pure functions of the code and the seeds, so a second
    ``--write-bench`` leaves ``git diff benchmark_results/`` empty: that diff
    is the exact regression gate.  ``slug`` overrides the filename stem
    (default: slugified ``result.name``).
    """
    write = request.config.getoption("--write-bench")

    def report(result, slug=None) -> None:
        table = to_text(result)
        print()
        print(table)
        if write:
            _archive(result, table, slug)

    return report


def _archive(result, table, slug) -> None:
    results_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    if slug is None:
        slug = re.sub(r"[^a-z0-9]+", "-", result.name.lower()).strip("-")[:60]
    (results_dir / f"{slug}.txt").write_text(table + "\n", encoding="utf-8")

    payload = {
        "name": result.name,
        "events": sum(int(point.extras.get("events", 0)) for point in result.points),
        "points": result.rows(),
    }
    (results_dir / f"BENCH_{slug}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
