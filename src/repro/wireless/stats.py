"""Transmission accounting for the wireless medium.

The paper's "transmissions (overhead)" metric is the number of packets handed
to the radio by all nodes, broken down per protocol component (discovery,
bitmaps, Interest/Data, routing, transport...).  These counters provide that
breakdown.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class NodeRadioStats:
    """Per-node radio counters.

    Read per receiver by the hand-computed MAC tests and by the delivery
    fingerprint ``tests/test_delivery_equivalence.py`` compares across the
    batched and per-receiver schedules.
    """

    frames_sent: int = 0
    frames_received: int = 0
    frames_overheard: int = 0
    frames_lost: int = 0
    frames_collided: int = 0


@dataclass
class MediumStats:
    """Medium-wide counters aggregated over every attached radio."""

    frames_transmitted: int = 0
    bytes_transmitted: int = 0
    deliveries: int = 0
    losses: int = 0
    collisions: int = 0
    transmitted_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    transmitted_by_protocol: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record_transmission(self, kind: str, protocol: str, size_bytes: int) -> None:
        self.frames_transmitted += 1
        self.bytes_transmitted += size_bytes
        self.transmitted_by_kind[kind] += 1
        if protocol:
            self.transmitted_by_protocol[protocol] += 1

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict snapshot, convenient for result tables."""
        return {
            "frames_transmitted": self.frames_transmitted,
            "bytes_transmitted": self.bytes_transmitted,
            "deliveries": self.deliveries,
            "losses": self.losses,
            "collisions": self.collisions,
            "transmitted_by_kind": dict(self.transmitted_by_kind),
            "transmitted_by_protocol": dict(self.transmitted_by_protocol),
        }
