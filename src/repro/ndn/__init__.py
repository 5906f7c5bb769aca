"""A Named Data Networking (NDN) forwarding stack.

This package reimplements, in Python, the NDN abstractions DAPES runs on:
hierarchical names, Interest/Data packets with per-packet signatures, and an
NFD-style forwarder with a Content Store (CS), Pending Interest Table (PIT)
and pluggable forwarding strategies (Figure 1 of the paper).  Packets travel
as objects; their wire sizes are modelled, not encoded.

The forwarder is transport-agnostic: faces connect it either to a local
application (:class:`~repro.ndn.face.AppFace`) or to the shared wireless
broadcast medium (:class:`~repro.ndn.face.BroadcastFace`).
"""

from repro.ndn.content_store import ContentStore
from repro.ndn.face import AppFace, BroadcastFace, Face
from repro.ndn.forwarder import Forwarder, ForwarderConfig
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.ndn.pit import Pit, PitEntry
from repro.ndn.strategy import (
    ForwardingStrategy,
    MulticastStrategy,
    ProbabilisticSuppressionStrategy,
)

__all__ = [
    "AppFace",
    "BroadcastFace",
    "ContentStore",
    "Data",
    "Face",
    "Forwarder",
    "ForwarderConfig",
    "ForwardingStrategy",
    "Interest",
    "MulticastStrategy",
    "Name",
    "Pit",
    "PitEntry",
    "ProbabilisticSuppressionStrategy",
]
