"""Wireless substrate: an IEEE 802.11b-like broadcast medium.

The paper's nodes communicate through IEEE 802.11b ad-hoc mode at 11 Mb/s
with a configurable WiFi range (20-100 m in the simulations, ~50 m in the
real-world experiments) and a 10 % loss rate.  This package models:

* a geometric unit-disk channel — a frame transmitted by a node is heard by
  every node within range at the moment of transmission;
* transmission delay proportional to frame size (plus per-frame PHY/MAC
  overhead);
* collisions — two receptions overlapping in time at the same receiver
  corrupt each other;
* independent Bernoulli frame loss on top of collisions;
* per-node and per-frame-kind transmission accounting, which is the source
  of the paper's "number of transmissions" (overhead) metric.
"""

from repro.wireless.channel import ChannelConfig
from repro.wireless.environment import Environment, Obstacle, segments_intersect
from repro.wireless.frames import Frame
from repro.wireless.medium import WirelessMedium
from repro.wireless.propagation import (
    LogDistancePropagation,
    ObstaclePropagation,
    PropagationModel,
    UnitDiskPropagation,
    available_propagation_models,
    build_propagation,
    register_propagation,
)
from repro.wireless.radio import Radio
from repro.wireless.spatial import (
    GridNeighborIndex,
    NeighborIndex,
    build_neighbor_index,
)
from repro.wireless.stats import MediumStats, NodeRadioStats

__all__ = [
    "ChannelConfig",
    "Environment",
    "Frame",
    "GridNeighborIndex",
    "LogDistancePropagation",
    "MediumStats",
    "NeighborIndex",
    "NodeRadioStats",
    "Obstacle",
    "ObstaclePropagation",
    "PropagationModel",
    "Radio",
    "UnitDiskPropagation",
    "WirelessMedium",
    "available_propagation_models",
    "build_neighbor_index",
    "build_propagation",
    "register_propagation",
    "segments_intersect",
]
