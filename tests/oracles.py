"""Test oracles: the reference implementations the equivalence tests use.

Production code has one neighbour index (the grid of
:mod:`repro.wireless.spatial`) and one delivery schedule (one completion
event per transmission in :mod:`repro.wireless.medium`).  Their reference
twins live here, on the test side, so no config field selects them:

* :class:`BruteForceNeighborIndex` — an O(N) scan over every attached radio,
  exactly what the medium did historically.  It remembers nothing between
  queries, which makes it the oracle for the grid's cells and remembered
  neighbour sets.
* :class:`PerReceiverMedium` — a :class:`WirelessMedium` that schedules one
  event per receiver (the seed schedule), the oracle for batched delivery.
* :func:`oracle` — a context manager that builds every medium a trial or a
  serial spec run constructs inside it with either oracle swapped in.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List
from unittest import mock

import repro.experiments.scenario as scenario_module
import repro.experiments.table1_feasibility as table1_module
import repro.wireless.medium as medium_module
from repro.wireless import WirelessMedium
from repro.wireless.spatial import NeighborIndex


class BruteForceNeighborIndex(NeighborIndex):
    """Reference backend: compare against every attached radio."""

    def neighbors(self, node_id: str, radius: float, time: float) -> List[str]:
        position = self.mobility.position
        origin = position(node_id, time)
        origin_x, origin_y = origin.x, origin.y
        radius_sq = radius * radius
        nearby = []
        for other_id in self._attach_order:
            if other_id == node_id:
                continue
            other = position(other_id, time)
            dx = other.x - origin_x
            dy = other.y - origin_y
            if dx * dx + dy * dy <= radius_sq:
                nearby.append(other_id)
        return nearby


class PerReceiverMedium(WirelessMedium):
    """The seed delivery schedule: one completion event per receiver."""

    def _schedule_delivery(self, airtime, batch) -> None:
        for receiver_id, reception in batch:
            self.sim.schedule_call(airtime, self._complete_reception, receiver_id, reception)


#: The medium class of each delivery schedule, for worlds built by hand.
MEDIUM = {"batched": WirelessMedium, "per_receiver": PerReceiverMedium}


@contextmanager
def oracle(index: str = "grid", delivery: str = "batched"):
    """Swap the selected oracle(s) into every medium built inside the block.

    ``index="brute"`` makes every :class:`WirelessMedium` built in the block
    resolve neighbours with :class:`BruteForceNeighborIndex`;
    ``delivery="per_receiver"`` makes the scenario builders and Table I
    build a :class:`PerReceiverMedium`.  The defaults select production
    code and patch nothing.  Only this process sees the swap, so run specs
    with ``workers=1``; a block that selected an oracle but built no medium
    with it fails, so a run that bypassed the swap cannot pass silently.
    """
    if index not in ("grid", "brute") or delivery not in MEDIUM:
        raise ValueError(f"unknown oracle selection index={index!r} delivery={delivery!r}")
    used = []

    def brute_index(config, mobility, max_range=None):
        used.append("index")
        return BruteForceNeighborIndex(mobility)

    def per_receiver_medium(*args, **kwargs):
        used.append("delivery")
        return PerReceiverMedium(*args, **kwargs)

    patches = []
    if index == "brute":
        patches.append(mock.patch.object(medium_module, "build_neighbor_index", brute_index))
    if delivery == "per_receiver":
        for module in (scenario_module, table1_module):
            patches.append(mock.patch.object(module, "WirelessMedium", per_receiver_medium))
    for patch in patches:
        patch.start()
    try:
        yield
    finally:
        for patch in reversed(patches):
            patch.stop()
    for selected, name in ((index == "brute", "index"), (delivery == "per_receiver", "delivery")):
        if selected and name not in used:
            raise AssertionError(f"oracle({name}=...) was selected but no medium used it")
