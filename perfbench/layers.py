"""Per-layer host-time attribution: cProfile bucketed by defining module.

A layer is a module (or module group) of ``src/repro``.  One call is run
under a stdlib ``cProfile.Profile``; every profiled function's self time and
call count go to the layer that defines it.  Builtin, stdlib and NumPy
functions have no layer of their own: the self time of each is charged to
the layer of its *direct* caller (the profiler's per-caller sub-entries say
who that was); what is called from a non-``repro`` frame goes to ``other``.

cProfile taxes every Python-level call but not work inside C, so the shares
are a map of where to look, not a prediction of untraced savings — the
traced/untraced wall ratio is reported next to them for that reason.
"""

from __future__ import annotations

import cProfile
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "simulation",
    "mobility",
    "wireless.spatial",
    "wireless.propagation",
    "wireless.medium",
    "ndn",
    "core",
    "ip",
    "manet",
    "baselines",
    "crypto",
    "experiments",
    "cluster",
    "other",
)

_WIRELESS_FILES = {
    "spatial.py": "wireless.spatial",
    "sharded.py": "wireless.spatial",
    "propagation.py": "wireless.propagation",
    "environment.py": "wireless.propagation",
}
_PACKAGE_LAYERS = frozenset(LAYERS) - {"other"}


def layer_of(filename: str) -> Optional[str]:
    """The layer defining ``filename``, or ``None`` for code outside ``repro``."""
    _, marker, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not marker:
        return None
    package, _, rest = tail.partition("/")
    if package == "wireless":
        return _WIRELESS_FILES.get(rest, "wireless.medium")
    # Top-level modules (arrays.py, profiling.py) and the packages no
    # workload exercises beyond a "none" lookup (churn, faults) are "other".
    return package if package in _PACKAGE_LAYERS else "other"


def _code_layer(code) -> Optional[str]:
    # Builtins appear as plain strings in cProfile's entries.
    return None if isinstance(code, str) else layer_of(code.co_filename)


def _label(code) -> str:
    if isinstance(code, str):
        return code
    return f"{code.co_filename.rpartition('/repro/')[2] or code.co_filename}:{code.co_firstlineno}({code.co_name})"


def profile_call(fn: Callable[[], object]) -> Tuple[object, float, Dict[str, Dict[str, float]], List[Dict[str, object]]]:
    """Run ``fn()`` under cProfile.

    Returns ``(result, traced_wall_s, table, top)`` where ``table`` maps each
    layer to ``{"self_s", "self_share", "calls"}`` (shares sum to 1) and
    ``top`` lists the 25 functions with the largest self time.
    """
    profiler = cProfile.Profile()
    start = time.perf_counter()
    result = profiler.runcall(fn)
    wall = time.perf_counter() - start
    entries = profiler.getstats()

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    charged: Dict[object, float] = {}  # foreign self time already given to a caller's layer
    for entry in entries:
        layer = _code_layer(entry.code)
        if layer is None:
            continue
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if _code_layer(sub.code) is None:
                self_s[layer] += sub.inlinetime
                charged[sub.code] = charged.get(sub.code, 0.0) + sub.inlinetime
    for entry in entries:
        if _code_layer(entry.code) is None:
            self_s["other"] += entry.inlinetime - charged.get(entry.code, 0.0)
            calls["other"] += entry.callcount

    total = sum(self_s.values()) or 1.0
    table = {
        layer: {
            "self_s": self_s[layer],
            "self_share": self_s[layer] / total,
            "calls": calls[layer],
        }
        for layer in LAYERS
    }
    ranked = sorted(entries, key=lambda entry: entry.inlinetime, reverse=True)[:25]
    top = [
        {
            "function": _label(entry.code),
            "layer": _code_layer(entry.code) or "(charged to caller)",
            "self_s": entry.inlinetime,
            "calls": entry.callcount,
        }
        for entry in ranked
    ]
    return result, wall, table, top
