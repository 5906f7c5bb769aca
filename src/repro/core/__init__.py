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

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bitmap": ("Bitmap",),
    "collection": ("CollectionBuilder", "FileCollection", "FileSpec", "PacketStore"),
    "config": ("DapesConfig",),
    "knowledge": ("NeighborKnowledge",),
    "metadata": ("CollectionMetadata", "FileMetadata", "MetadataFormat"),
    "namespace": ("DapesNamespace",),
    "node": ("DapesNode", "build_dapes_peer"),
    "peba": ("PebaScheduler", "peba_average_delay"),
    "peer": ("DapesPeer",),
    "pure_forwarder": ("PureForwarderNode",),
    "rpf": ("EncounterBasedRpf", "FetchStrategy", "LocalNeighborhoodRpf", "make_fetch_strategy"),
})
