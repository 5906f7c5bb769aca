"""Composite mobility: different models for different nodes in one scenario.

The paper's topology mixes 4 stationary repositories with 40 mobile nodes;
the composite model dispatches position queries to the model each node was
registered with.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mobility.base import MobilityModel, Position


class CompositeMobility(MobilityModel):
    """Routes position queries to the mobility model owning each node."""

    def __init__(self):
        self._owners: Dict[str, MobilityModel] = {}
        self._models: Dict[int, MobilityModel] = {}
        # Flat list of child models: mobility_version() is polled on every
        # neighbour query, so the aggregation below must stay a plain loop
        # over a list (no dict-view or generator machinery).
        self._model_list: List[MobilityModel] = []
        self._version = 0

    def assign(self, node_id: str, model: MobilityModel) -> None:
        """Declare that ``node_id``'s positions come from ``model``."""
        self._owners[node_id] = model
        if id(model) not in self._models:
            self._models[id(model)] = model
            self._model_list.append(model)
        self._version += 1

    def position(self, node_id: str, time: float) -> Position:
        try:
            model = self._owners[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} is not assigned to any mobility model") from None
        return model.position(node_id, time)

    def position_xy(self, node_id: str, time: float) -> Tuple[float, float]:
        try:
            model = self._owners[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} is not assigned to any mobility model") from None
        return model.position_xy(node_id, time)

    def speed_bound(self) -> float:
        return max(
            (model.speed_bound() for model in self._model_list), default=0.0
        )

    def mobility_version(self) -> int:
        version = self._version
        for model in self._model_list:
            version += model.mobility_version()
        return version

    def metrics(self) -> Dict[str, float]:
        legs = sum(model.metrics()["mobility.legs_generated"] for model in self._model_list)
        return {"mobility.legs_generated": float(legs)}

    @property
    def node_ids(self) -> list[str]:
        return list(self._owners)
