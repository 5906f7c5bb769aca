"""Large-population throughput: the region-sharded medium A/B artifacts.

Not a paper figure — the perf counterpart to the figure benchmarks.  Each
parametrized run sweeps the ``scaling`` spec at one large ``node_factor``
(4x and 8x the small preset's mobile-downloader population) on the
array-native ``grid_array`` backend, which runs *both* registered variants —
unsharded and sharded K=4 — interleaved in one process.  The archived
``BENCH_scaling-node-factor-<k>.json`` records per-variant events/sec
(computed from per-trial profiles, so the A/B shares identical machine
state) plus the sharded/unsharded speedup, giving the ROADMAP perf
trajectory its measured sharded numbers.

The two variants must also agree on every simulation outcome — the sharded
medium's byte-identity contract, asserted here at benchmark scale on top of
the dedicated tests in tests/test_sharded_medium.py.
"""

from __future__ import annotations

import pytest
from conftest import run_sweep

#: Large-population factors over the small preset (6 mobile downloaders, so
#: 24 and 48); factors 1-2 are covered by the default sweep's CI smoke.
LARGE_NODE_FACTORS = (4, 8)


def _series_throughput(result, sharded: bool) -> float:
    """Aggregate events/sec of one variant series from per-trial profiles."""
    events = wall = 0.0
    for point in result.points:
        if bool(point.parameters.get("sharded")) != sharded:
            continue
        for trial in point.trial_results:
            events += trial.profile.get("engine.events", 0.0)
            wall += trial.profile.get("wall_clock_s", 0.0)
    return events / wall if wall else 0.0


def _outcome(point) -> tuple:
    """The simulation outcome of a point, independent of medium sharding."""
    return (
        point.download_time,
        point.transmissions,
        point.completion_ratio,
        point.extras.get("events"),
    )


@pytest.mark.parametrize("node_factor", LARGE_NODE_FACTORS)
def test_scaling_large_population_sharded_ab(benchmark, bench_config, node_factor, report):
    config = bench_config.with_overrides(neighbor_index="grid_array")
    result = run_sweep(
        benchmark, "scaling", config, axes={"node_factor": (node_factor,)}
    )

    unsharded = _series_throughput(result, sharded=False)
    sharded = _series_throughput(result, sharded=True)
    report(
        result,
        benchmark,
        slug=f"scaling-node-factor-{node_factor}",
        metadata={
            "sharded_ab": {
                "node_factor": node_factor,
                "shards": 4,
                "shard_workers": 4,
                "unsharded_events_per_sec": round(unsharded, 1),
                "sharded_events_per_sec": round(sharded, 1),
                # Honest A/B: the ROADMAP perf trajectory quotes this ratio
                # directly, above or below the 2x intra-trial target.
                "sharded_speedup": round(sharded / unsharded, 3) if unsharded else None,
                "target_speedup": 2.0,
            }
        },
    )

    assert unsharded > 0 and sharded > 0
    # Byte-identity at benchmark scale: the sharded series reproduces the
    # unsharded outcomes exactly, so the throughput A/B compares pure
    # medium overhead/speedup and nothing else.
    plain = [p for p in result.points if not p.parameters.get("sharded")]
    mirror = [p for p in result.points if p.parameters.get("sharded")]
    assert len(plain) == len(mirror) == 1
    assert _outcome(plain[0]) == _outcome(mirror[0])
