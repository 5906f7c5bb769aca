"""DAPES protocol configuration.

Defaults match the paper's simulation setup (Section VI-B): 1 KB packets, a
20 ms transmission window, local-neighborhood RPF, interleaved bitmap/data
exchange, bitmaps fetched from every peer in range, PEBA enabled, and a 20 %
forwarding probability for nodes with no knowledge about the requested data.

:class:`DapesConfig` holds the choices an experiment varies.  The timers and
limits no experiment varies are the module constants below; the packet size
is the collection's own (``CollectionMetadata.packet_size``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: Default transmission window in seconds: data Interests and
#: non-prioritized transmissions pick a random delay inside it (paper: 20 ms).
TRANSMISSION_WINDOW = 0.020
#: Period of discovery Interests while peers have recently been encountered
#: (adaptive discovery, Section IV-B).
DISCOVERY_PERIOD_ACTIVE = 2.0
#: Period of discovery Interests while the peer is isolated.
DISCOVERY_PERIOD_IDLE = 8.0
#: A neighbour heard within this many seconds counts as "recent" for the
#: adaptive discovery period.
DISCOVERY_RECENT_WINDOW = 10.0
#: Duration of one PEBA transmission slot in seconds (Section IV-F).
PEBA_SLOT_DURATION = 0.004
#: Slots PEBA creates on the first collision of an encounter.
PEBA_INITIAL_SLOTS = 2
#: Priority groups the PEBA slot table is split into.
PEBA_PRIORITY_GROUPS = 2
#: Cap on the PEBA slot table, which doubles on every further collision.
PEBA_MAX_SLOTS = 64
#: NDN Interest lifetime in seconds.
INTEREST_LIFETIME = 2.0
#: Application-level retransmission timeout for data Interests: peers
#: re-express an unanswered Interest after this long (with exponential
#: backoff) instead of waiting for the full Interest lifetime, the way NDN
#: consumer applications use RTT-based retransmission timers.
DATA_RETRANSMIT_TIMEOUT = 0.25
#: Maximum number of outstanding data Interests per session.
PIPELINE_SIZE = 4
#: How many times a data Interest is re-expressed while neighbours are still
#: around.
RETRANSMISSION_LIMIT = 8
#: Number of encountered-peer bitmaps remembered by encounter-based RPF.
ENCOUNTER_HISTORY = 20
#: Seconds after which a silent neighbour is considered gone (encounter
#: over, local-neighborhood RPF state expires).
NEIGHBOR_TIMEOUT = 6.0
#: Lifetime of entries in the intermediate-node knowledge store (Section
#: V-B: "short-lived knowledge").
KNOWLEDGE_TIMEOUT = 15.0


@dataclass
class DapesConfig:
    """The DAPES choices an experiment varies.

    Attributes
    ----------
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
    multi_hop:
        Whether intermediate nodes may forward Interests over multiple hops
        at all (the "single-hop" curves of Figs. 9g/9h disable this).
    forwarding_probability:
        Probability that a pure forwarder or an intermediate DAPES node with
        no knowledge about the requested data forwards a received Interest
        (paper default: 20 %).
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

    metadata_format: str = "merkle"
    rpf_strategy: str = "local"
    random_start: bool = True
    bitmap_exchange: str = "interleaved"
    max_bitmaps: Optional[int] = None
    peba_enabled: bool = True
    multi_hop: bool = True
    forwarding_probability: float = 0.2
    interested_in_all: bool = False
    retransmit_jitter: float = 0.0
    dark_neighbor_fallback: bool = False

    def __post_init__(self) -> None:
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
        if not 0.0 <= self.retransmit_jitter <= 1.0:
            raise ValueError("retransmit_jitter must be within [0, 1]")

    def with_overrides(self, **overrides) -> "DapesConfig":
        """Return a copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)
