#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py A.json B.json

One row per workload x end-to-end metric: B against A, relative, judged
against the metric's ``bound`` in ``BENCHMARK.json`` (worse by more than the
bound fails).  Simulated statistics are exact: when both sets used the same
``--seed``, ``sim_digest``, ``attempted`` and ``failed`` must be equal, and in
``--trace 1`` sets every per-layer metric whose unit is not a host-time unit
must be equal too.  Exit status 1 when any row fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Units of per-layer metrics measured in (or derived from) host time; all
#: other per-layer metrics are simulated counts and repeat exactly.
HOST_TIME_UNITS = frozenset({"s", "us", "ns", "1/s", "share", "x"})


def compare(first: dict, second: dict, contract: dict) -> bool:
    ok = True
    same_inputs = first["seed"] == second["seed"] and first["smoke"] == second["smoke"]
    bounds = {metric["name"]: metric for metric in contract["end_to_end"]}
    print(f"{'workload':<12} {'metric':<44} {'A':>14} {'B':>14} {'B vs A':>9}  verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        a, b = first["workloads"].get(workload), second["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload:<12} missing from {'A' if a is None else 'B'}")
            ok = False
            continue
        exact = {"correct": (a["result"]["correct"], b["result"]["correct"])}
        if same_inputs:
            exact["sim_digest"] = (a["info"]["sim_digest"], b["info"]["sim_digest"])
            exact.update({key: (a["result"][key], b["result"][key]) for key in ("attempted", "failed")})
        for name, (left, right) in exact.items():
            good = left == right and (name != "correct" or left is True)
            ok &= good
            print(f"{workload:<12} {name:<44} {left!s:>14} {right!s:>14} {'':>9}  {'equal' if good else 'DIFFERS'}")
        for name, entry in a["result"]["metrics"].items():
            left, right = entry["value"], b["result"]["metrics"][name]["value"]
            if name in bounds:
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                change = (right - left) / left
                good = sign * change <= bounds[name]["bound"]
                verdict = f"within {bounds[name]['bound']:.0%}" if good else f"WORSE by more than {bounds[name]['bound']:.0%}"
                print(f"{workload:<12} {name:<44} {left:>14.6f} {right:>14.6f} {change:>+9.2%}  {verdict}")
            elif same_inputs and entry["unit"] not in HOST_TIME_UNITS:
                good = left == right
                if not good:
                    print(f"{workload:<12} {name:<44} {left:>14.6f} {right:>14.6f} {'':>9}  DIFFERS (exact count)")
            else:
                continue
            ok &= good
    return ok


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv[1:])
    if first["trace"] != second["trace"]:
        print("the two sets come from different passes (--trace 0 vs --trace 1)", file=sys.stderr)
        return 2
    ok = compare(first, second, json.loads(CONTRACT.read_text(encoding="utf-8")))
    print("all rows within bounds" if ok else "FAILED: see rows above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
