"""Large-population throughput: the ``scaling`` spec at 4x and 8x the preset.

Not a paper figure — the perf counterpart to the figure benchmarks.  Each
parametrized run sweeps the ``scaling`` spec at one large ``node_factor``
(4x and 8x the small preset's mobile-downloader population).  The archived
``BENCH_scaling-node-factor-<k>.json`` records the wall clock and events/sec
the CI scaling perf gate compares against.
"""

from __future__ import annotations

import pytest
from conftest import run_sweep

#: Large-population factors over the small preset (6 mobile downloaders, so
#: 24 and 48); factors 1-2 are covered by the default sweep's CI smoke.
LARGE_NODE_FACTORS = (4, 8)


@pytest.mark.parametrize("node_factor", LARGE_NODE_FACTORS)
def test_scaling_large_population(benchmark, bench_config, node_factor, report):
    result = run_sweep(
        benchmark, "scaling", bench_config, axes={"node_factor": (node_factor,)}
    )
    report(result, benchmark, slug=f"scaling-node-factor-{node_factor}")

    [point] = result.points
    assert point.parameters["mobile_downloaders"] == bench_config.mobile_downloaders * node_factor
    assert point.completion_ratio == 1.0
    assert point.extras.get("events", 0) > 0
