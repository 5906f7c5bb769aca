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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "channel": ("ChannelConfig",),
    "environment": ("Environment", "Obstacle", "segments_intersect"),
    "frames": ("Frame",),
    "medium": ("WirelessMedium",),
    "propagation": (
        "LogDistancePropagation",
        "ObstaclePropagation",
        "PropagationModel",
        "UnitDiskPropagation",
        "available_propagation_models",
        "build_propagation",
        "register_propagation",
    ),
    "radio": ("Radio",),
    "spatial": ("GridNeighborIndex", "NeighborIndex", "build_neighbor_index"),
    "stats": ("MediumStats", "NodeRadioStats"),
})
