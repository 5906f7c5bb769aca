"""Static node placement (stationary repositories, fixed topologies)."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from repro.mobility.base import MobilityModel, Position


class StaticPlacement(MobilityModel):
    """Nodes that never move.

    Parameters
    ----------
    positions:
        Mapping from node id to ``(x, y)`` coordinates in metres.
    """

    def __init__(self, positions: Mapping[str, Tuple[float, float]] | None = None):
        self._positions: Dict[str, Position] = {}
        self._version = 0
        if positions:
            for node_id, (x, y) in positions.items():
                self._positions[node_id] = Position(x, y)

    def place(self, node_id: str, x: float, y: float) -> None:
        """Place (or move) a node at a fixed position.

        Moving a node mid-run is a teleport: the version bump below tells
        grid snapshots and remembered neighbour sets to discard everything
        they knew.
        """
        self._positions[node_id] = Position(x, y)
        self._version += 1

    def place_grid(self, node_ids: Iterable[str], width: float, height: float, spacing: float) -> None:
        """Place nodes on a regular grid covering ``width`` x ``height`` metres."""
        node_ids = list(node_ids)
        columns = max(int(width // spacing), 1)
        for index, node_id in enumerate(node_ids):
            row, col = divmod(index, columns)
            self.place(node_id, min(col * spacing, width), min(row * spacing, height))

    def position(self, node_id: str, time: float) -> Position:
        try:
            return self._positions[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} has no static position") from None

    def speed_bound(self) -> float:
        return 0.0

    def mobility_version(self) -> int:
        return self._version

    @property
    def node_ids(self) -> list[str]:
        """Ids of all placed nodes."""
        return list(self._positions)
