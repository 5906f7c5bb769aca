"""DAPES protocol configuration.

Defaults match the paper's simulation setup (Section VI-B): 1 KB packets, a
20 ms transmission window, local-neighborhood RPF, interleaved bitmap/data
exchange, bitmaps fetched from every peer in range, PEBA enabled, and a 20 %
forwarding probability for nodes with no knowledge about the requested data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class DapesConfig:
    """Tunable parameters of a DAPES peer.

    Attributes
    ----------
    packet_size:
        Size of each file-collection data packet in bytes (paper: 1 KB).
    transmission_window:
        Default transmission window in seconds; data Interests and
        non-prioritized transmissions pick a random delay inside it
        (paper: 20 ms).
    discovery_period_active / discovery_period_idle:
        Period of discovery Interests when peers have recently been
        encountered / when the peer is isolated (adaptive discovery,
        Section IV-B).
    discovery_recent_window:
        A neighbour heard within this many seconds counts as "recent" for
        the adaptive discovery period.
    metadata_format:
        ``"digest"`` for the packet-digest-based format, ``"merkle"`` for
        the Merkle-tree-based format (Section IV-C).
    rpf_strategy:
        ``"local"`` (local-neighborhood RPF) or ``"encounter"``
        (encounter-based RPF), Section IV-E.
    random_start:
        Start downloading at a random packet of the collection rather than
        the first one (the "random packet" curves of Fig. 9a).
    bitmap_exchange:
        ``"interleaved"`` to interleave bitmap and data exchanges, or
        ``"before"`` to fetch bitmaps first and only then download data
        (Section IV-D, Figs. 9c/9d).
    max_bitmaps:
        Number of bitmaps to fetch per encounter before (or while)
        downloading; ``None`` means every peer in range ("all bitmaps").
    peba_enabled:
        Use PEBA for bitmap transmission collision mitigation; when disabled
        peers use the purely linear prioritization (Section IV-F, Fig. 9b).
    peba_slot_duration:
        Duration of one PEBA transmission slot in seconds.
    peba_initial_slots / peba_priority_groups / peba_max_slots:
        Slot-table parameters of PEBA.
    multi_hop:
        Whether intermediate nodes may forward Interests over multiple hops
        at all (the "single-hop" curves of Figs. 9g/9h disable this).
    forwarding_probability:
        Probability that a pure forwarder or an intermediate DAPES node with
        no knowledge about the requested data forwards a received Interest
        (paper default: 20 %).
    interest_lifetime:
        NDN Interest lifetime in seconds.
    data_retransmit_timeout:
        Application-level retransmission timeout for data Interests.  Peers
        re-express an unanswered Interest after this long (with exponential
        backoff) instead of waiting for the full Interest lifetime, the way
        NDN consumer applications use RTT-based retransmission timers.
    pipeline_size:
        Maximum number of outstanding data Interests per peer.
    retransmission_limit:
        How many times a data Interest is re-expressed while neighbours are
        still around.
    encounter_history:
        Number of encountered-peer bitmaps remembered by encounter-based RPF.
    neighbor_timeout:
        Seconds after which a silent neighbour is considered gone (encounter
        over, local-neighborhood RPF state expires).
    knowledge_timeout:
        Lifetime of entries in the intermediate-node knowledge store
        (Section V-B: "short-lived knowledge").
    interested_in_all:
        Download every collection discovered (used by repositories); when
        ``False`` the peer only downloads collections it was told to join.
    retransmit_jitter:
        Resilience hardening: multiply each data-Interest retransmission
        timeout by ``1 + U(0, retransmit_jitter)`` so synchronized
        retransmissions desynchronize under sustained loss (jittered
        exponential backoff).  ``0.0`` (the default) draws nothing and is
        byte-identical to the pre-hardening behaviour.
    dark_neighbor_fallback:
        Resilience hardening: when a neighbour goes dark mid-transfer (its
        bitmap exchange times out), immediately forget it and deterministically
        fall back to the remaining active neighbours instead of waiting for
        the neighbour timeout.  Off by default (byte-identical when off).
    """

    packet_size: int = 1024
    transmission_window: float = 0.020
    discovery_period_active: float = 2.0
    discovery_period_idle: float = 8.0
    discovery_recent_window: float = 10.0
    metadata_format: str = "merkle"
    rpf_strategy: str = "local"
    random_start: bool = True
    bitmap_exchange: str = "interleaved"
    max_bitmaps: Optional[int] = None
    peba_enabled: bool = True
    peba_slot_duration: float = 0.004
    peba_initial_slots: int = 2
    peba_priority_groups: int = 2
    peba_max_slots: int = 64
    multi_hop: bool = True
    forwarding_probability: float = 0.2
    interest_lifetime: float = 2.0
    data_retransmit_timeout: float = 0.25
    pipeline_size: int = 4
    retransmission_limit: int = 8
    encounter_history: int = 20
    neighbor_timeout: float = 6.0
    knowledge_timeout: float = 15.0
    interested_in_all: bool = False
    retransmit_jitter: float = 0.0
    dark_neighbor_fallback: bool = False

    def __post_init__(self) -> None:
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if self.metadata_format not in ("digest", "merkle"):
            raise ValueError("metadata_format must be 'digest' or 'merkle'")
        if self.rpf_strategy not in ("local", "encounter"):
            raise ValueError("rpf_strategy must be 'local' or 'encounter'")
        if self.bitmap_exchange not in ("interleaved", "before"):
            raise ValueError("bitmap_exchange must be 'interleaved' or 'before'")
        if not 0.0 <= self.forwarding_probability <= 1.0:
            raise ValueError("forwarding_probability must be within [0, 1]")
        if self.max_bitmaps is not None and self.max_bitmaps < 1:
            raise ValueError("max_bitmaps must be None or >= 1")
        if self.pipeline_size < 1:
            raise ValueError("pipeline_size must be >= 1")
        if not 0.0 <= self.retransmit_jitter <= 1.0:
            raise ValueError("retransmit_jitter must be within [0, 1]")

    def with_overrides(self, **overrides) -> "DapesConfig":
        """Return a copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)
