"""The DAPES protocol (the paper's primary contribution).

The package is organised around the design components of Section IV and the
multi-hop communication design of Section V:

* :mod:`repro.core.namespace` — the hierarchical naming scheme
  (Section IV-A) plus the discovery and bitmap namespaces.
* :mod:`repro.core.collection` — file collections, packetisation, signing
  and the per-peer packet store.
* :mod:`repro.core.metadata` — the two metadata encodings (packet-digest and
  Merkle-tree based, Section IV-C) and the peer's ``SecureInit`` part.
* :mod:`repro.core.bitmap` — compact data advertisements (Section IV-D).
* :mod:`repro.core.rpf` — the Rarest-Piece-First variants (Section IV-E) and
  the peer's ``Fetching`` part.
* :mod:`repro.core.advertisement` / :mod:`repro.core.peba` — advertisement
  prioritization, the peer's ``Advertising`` part and the Priority-based
  Exponential Backoff Algorithm (Section IV-F).
* :mod:`repro.core.knowledge` — the short-lived knowledge peers build about
  data available around them (Section V).
* :mod:`repro.core.peer` — the DAPES peer application: sessions, the public
  API and one table routing each packet kind to its part, and the
  ``Discovery`` part (Section IV-B).
* :mod:`repro.core.intermediate` — forwarding/suppression strategy for
  intermediate nodes that run DAPES (Section V-B).
* :mod:`repro.core.pure_forwarder` — NDN-only pure forwarders (Section V-A).
* :mod:`repro.core.node` — the factory wiring a full DAPES node (radio,
  forwarder, faces, application) together.
"""

from repro.core.bitmap import Bitmap
from repro.core.collection import CollectionBuilder, FileCollection, FileSpec, PacketStore
from repro.core.config import DapesConfig
from repro.core.knowledge import NeighborKnowledge
from repro.core.metadata import CollectionMetadata, FileMetadata, MetadataFormat
from repro.core.namespace import DapesNamespace
from repro.core.node import DapesNode, build_dapes_peer
from repro.core.peba import PebaScheduler, peba_average_delay
from repro.core.peer import DapesPeer
from repro.core.pure_forwarder import PureForwarderNode
from repro.core.rpf import EncounterBasedRpf, FetchStrategy, LocalNeighborhoodRpf, make_fetch_strategy

__all__ = [
    "Bitmap",
    "CollectionBuilder",
    "CollectionMetadata",
    "DapesConfig",
    "DapesNamespace",
    "DapesNode",
    "DapesPeer",
    "EncounterBasedRpf",
    "FetchStrategy",
    "FileCollection",
    "FileMetadata",
    "FileSpec",
    "LocalNeighborhoodRpf",
    "MetadataFormat",
    "NeighborKnowledge",
    "PacketStore",
    "PebaScheduler",
    "PureForwarderNode",
    "build_dapes_peer",
    "make_fetch_strategy",
    "peba_average_delay",
]
