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


def _wall_clock_seconds(benchmark) -> float | None:
    """Total measured wall-clock of a pytest-benchmark fixture, if available."""
    try:
        return float(sum(benchmark.stats.stats.data))
    except (AttributeError, TypeError):
        return None


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
    """``report(result, benchmark=None, slug=None)``: print, and archive on request.

    Always prints the experiment's rows (``pytest -s`` shows them inline).
    Under ``--write-bench`` it also archives them under benchmark_results/:
    the ``<slug>.txt`` tables are what EXPERIMENTS.md's measured numbers
    come from, and when the pytest-benchmark fixture is passed along a
    machine-readable ``BENCH_<slug>.json`` is written next to the table with
    the wall-clock and simulation-event throughput, giving future PRs a perf
    trajectory to compare against.  Writing is opt-in because the wall-clock
    fields differ on every run: an ordinary test run must not rewrite
    committed files.  ``slug`` overrides the filename stem (default:
    slugified ``result.name``).
    """
    write = request.config.getoption("--write-bench")

    def report(result, benchmark=None, slug=None) -> None:
        table = to_text(result)
        print()
        print(table)
        if write:
            _archive(result, table, benchmark, slug)

    return report


def _archive(result, table, benchmark, slug) -> None:
    results_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    if slug is None:
        slug = re.sub(r"[^a-z0-9]+", "-", result.name.lower()).strip("-")[:60]
    (results_dir / f"{slug}.txt").write_text(table + "\n", encoding="utf-8")

    wall_s = _wall_clock_seconds(benchmark) if benchmark is not None else None
    events = sum(int(point.extras.get("events", 0)) for point in result.points)
    payload = {
        "name": result.name,
        "wall_clock_s": round(wall_s, 4) if wall_s is not None else None,
        "events": events,
        "events_per_sec": round(events / wall_s, 1) if wall_s else None,
        "points": result.rows(),
    }
    (results_dir / f"BENCH_{slug}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
