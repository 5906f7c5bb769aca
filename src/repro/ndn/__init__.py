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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "content_store": ("ContentStore",),
    "face": ("AppFace", "BroadcastFace", "Face"),
    "forwarder": ("Forwarder", "ForwarderConfig"),
    "name": ("Name",),
    "packet": ("Data", "Interest"),
    "pit": ("Pit", "PitEntry"),
    "strategy": ("ForwardingStrategy", "MulticastStrategy", "ProbabilisticSuppressionStrategy"),
})
