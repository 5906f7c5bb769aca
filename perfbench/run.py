#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, two passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed 42] [--trace 0|1] [--smoke] [--out FILE]

With ``--workload`` it measures that workload in this process and prints, as
the last line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it, it runs
every workload, each in one fresh child interpreter at a time, prints every
metric by name and unit and (``--out``) writes the set for ``compare.py``.
Exit status is non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0


def parse_args(contract) -> argparse.Namespace:
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="measure this workload (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=42, help="workload inputs derive from it")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="how long the repeats of one workload go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny() inputs, one repeat (wiring check, not a measurement)")
    parser.add_argument("--out", help="all-workloads mode: write the combined results here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def units(contract, section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in contract[section]}


# ------------------------------------------------------------ one workload
def setup_only(args) -> int:
    """What ``setup_s`` times, start to exit: imports plus the first scenario (or the planned grid)."""
    import workloads
    from repro.experiments import get_builder
    from repro.experiments.sweep import task_listing

    if args.workload == workloads.SUITE:
        config, axes = workloads.suite_grid(args.seed, args.smoke)
        task_listing(workloads.suite_requests(config, axes))
    else:
        protocol, config, seed = workloads.trial_panel(args.workload, args.seed, args.smoke)[0]
        get_builder(protocol).build(config, seed)
    return 0


def measure_setup(args) -> list:
    """Host seconds of ``SETUP_REPEATS`` fresh interpreters doing ``--setup-only``, one at a time."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: a timed wait polls every 50 ms, which would quantize the result.
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_workload(args, contract) -> int:
    import workloads
    from repro.experiments import ExperimentConfig, run_protocol_trial

    seconds = 0.0 if args.smoke else args.seconds
    suite = args.workload == workloads.SUITE
    # Let imports, caches and lazy set-up finish before anything is timed.
    run_protocol_trial("dapes", ExperimentConfig.tiny(), 1)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
    if args.trace:
        import tracepass as tracing

        if suite:
            measured, metrics, top = tracing.trace_suite(*workloads.suite_grid(args.seed, args.smoke, profile=True))
        else:
            measured, metrics, top = tracing.trace_trials(
                workloads.trial_panel(args.workload, args.seed, args.smoke), seconds
            )
        trace_file = workloads.OUT / f"trace_{args.workload}.json"
        trace_file.write_text(json.dumps({**info, "layers": {
            layer: {column: metrics[f"{layer}.{column}"] for column in ("self_s", "self_share", "calls")}
            for layer in tracing.LAYERS
        }, "top_functions": top, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
        print(f"# per-layer table written to {trace_file.relative_to(HERE.parent)}")
        section = "per_layer"
    else:
        if suite:
            config, axes = workloads.suite_grid(args.seed, args.smoke)
            measured = workloads.measure_suite(config, axes, seconds)
            # The grid went through both paths, so its events were simulated twice.
            events = 2 * workloads.sim_summary(measured.results)["sim_events"]
            host_us_per_event = sum(measured.best) / events * 1e6
            print("# cluster traffic crossed the host's loopback interface (127.0.0.1), not a real link")
            for path in ("pool", "cluster"):
                walls = measured.notes[f"{path}_walls"]
                print(f"# {path}_wall_s best={min(walls):.3f} median={statistics.median(walls):.3f} max={max(walls):.3f}")
        else:
            measured = workloads.measure_trials(workloads.trial_panel(args.workload, args.seed, args.smoke), seconds)
            host_us_per_event = statistics.fmean(
                best / trial.events for best, trial in zip(measured.best, measured.results)
            ) * 1e6
        metrics = {
            "host_us_per_event": host_us_per_event,
            "peak_rss_mb": measured.peak_rss_mb,
            "setup_s": statistics.median(measure_setup(args)),
        }
        passes = measured.passes
        info.update(wall_s=sum(measured.best), wall_median_s=statistics.median(passes), wall_max_s=max(passes))
        print(f"# wall_s best={info['wall_s']:.3f} (per-unit best of N={len(passes)}) "
              f"wall_median_s={info['wall_median_s']:.3f} wall_max_s={info['wall_max_s']:.3f}")
        section = "end_to_end"

    summary = workloads.sim_summary(measured.results)
    failed = summary.pop("failed_downloads")
    attempted = summary.pop("downloads") + failed
    if suite:
        attempted += len(workloads.trial_results(measured.results))
        failed += measured.notes["failed_tasks"]
    info.update(summary, sim_digest=measured.digest, repeats=len(measured.passes))
    print(f"# sim_digest={measured.digest} sim_download_s={summary['sim_download_s']:.6f} "
          f"sim_transmissions={summary['sim_transmissions']} sim_events={summary['sim_events']} "
          f"failed={failed}/{attempted}")

    unit_of = units(contract, section)
    correct = measured.consistent
    if not correct:
        print("# CHECK FAILED: repeats (or serial/pool/cluster) of identical inputs disagree", file=sys.stderr)
    if set(metrics) != set(unit_of):
        correct = False
        print(f"# CHECK FAILED: metrics differ from BENCHMARK.json {section}: "
              f"{sorted(set(metrics) ^ set(unit_of))}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of.get(name, "")} for name in sorted(metrics)},
    }
    (workloads.OUT / f"run_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------- all workloads
def run_all(args, contract) -> int:
    """Every workload, each in one fresh child interpreter at a time."""
    combined = {"seed": args.seed, "trace": args.trace, "smoke": args.smoke, "workloads": {}}
    status = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}: {workload['why']}", flush=True)
        try:
            child = subprocess.run(command, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"{name}: FAILED (no result within {CHILD_TIMEOUT_S:.0f} s)")
            status = 1
            continue
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: FAILED (exit code {child.returncode})")
            status = 1
            continue
        for line in lines[:-1]:
            print(line)
        record = json.loads((HERE / "out" / f"run_{name}_trace{args.trace}.json").read_text(encoding="utf-8"))
        combined["workloads"][name] = record
        result = record["result"]
        print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>16.6f} {entry['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
        print(f"results written to {args.out}")
    return status


def main() -> int:
    if not CONTRACT.is_file() or not (HERE.parent / "src" / "repro").is_dir():
        print("perfbench: run from a checkout holding BENCHMARK.json and src/repro", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    args = parse_args(contract)
    if args.workload is None:
        return run_all(args, contract)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    (HERE / "out").mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
