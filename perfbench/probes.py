"""Outside probes: tight loops over public calls of single layers, untraced.

Each probe times one layer's hot public call on a freshly built (not yet
run) scenario of the workload, so the number is the cost of that call on
that world and nothing else.  Every probe samples five times over disjoint
simulated times and reports the best, like the workloads do.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict

from repro.simulation import Simulator
from repro.wireless.spatial import build_neighbor_index

EVENTS = 200_000
SAMPLES = 5


def _best(sample: Callable[[float], float]) -> float:
    """Best of ``SAMPLES`` calls of ``sample(t0)``: host seconds per operation."""
    return min(sample(index * 100.0) for index in range(SAMPLES))


def _noop() -> None:
    pass


def _engine(_t0: float) -> float:
    sim = Simulator(seed=1)
    start = time.perf_counter()
    for index in range(EVENTS):
        sim.schedule_call(index * 1e-6, _noop)
    sim.run()
    return (time.perf_counter() - start) / EVENTS


def run_probes(scenario) -> Dict[str, float]:
    """The four probe metrics for ``scenario``'s world."""
    medium = scenario.medium
    mobility = medium.mobility
    node_ids = medium.node_ids
    channel = medium.config
    reach = channel.max_range()

    def positions(t0: float) -> float:
        steps = 400
        start = time.perf_counter()
        for step in range(steps):
            mobility.positions_array(node_ids, t0 + step * 0.25)
        return (time.perf_counter() - start) / steps

    def neighbors(t0: float) -> float:
        index = build_neighbor_index(channel, mobility, max_range=reach)
        for node_id in node_ids:
            index.attach(node_id)
        steps = max(1, 4000 // len(node_ids))
        start = time.perf_counter()
        for step in range(steps):
            now = t0 + step * 0.5
            for node_id in node_ids:
                index.neighbors(node_id, reach, now)
        return (time.perf_counter() - start) / (steps * len(node_ids))

    link_quality = medium.propagation.link_quality
    rng = random.Random(0)  # the built-in models never draw from it

    def links(t0: float) -> float:
        # Each node against its next eight in attach order, at eight instants.
        pairs = []
        for step in range(8):
            xy = [tuple(row) for row in mobility.positions_array(node_ids, t0 + step * 2.0).tolist()]
            for row, sender in enumerate(node_ids):
                for other in range(row + 1, min(row + 9, len(node_ids))):
                    pairs.append(
                        (xy[row], xy[other], math.dist(xy[row], xy[other]), (sender, node_ids[other]))
                    )
        nominal = channel.wifi_range
        start = time.perf_counter()
        for sender_xy, receiver_xy, distance, link in pairs:
            link_quality(sender_xy, receiver_xy, distance, nominal, rng, link)
        return (time.perf_counter() - start) / len(pairs)

    return {
        "simulation.event_ns": _best(_engine) * 1e9,
        "mobility.positions_array_us": _best(positions) * 1e6,
        "wireless.spatial.neighbors_us": _best(neighbors) * 1e6,
        "wireless.propagation.link_quality_us": _best(links) * 1e6,
    }
