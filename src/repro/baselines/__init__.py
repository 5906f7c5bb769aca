"""IP-based baseline file-sharing protocols (Section VI-B of the paper).

* :mod:`repro.baselines.bithoc` — Bithoc: BitTorrent adapted to MANET.
  Peers discover each other and the data they have through periodic scoped
  flooding of HELLO messages, classify others into "close" (≤ 2 hops) and
  "far" neighbours, follow a Rarest-Piece-First policy towards close
  neighbours, and fetch data over a TCP-like reliable transport routed by
  DSDV.
* :mod:`repro.baselines.ekta` — Ekta: a DHT substrate integrated with DSR.
  Peers publish the objects they hold into the DHT, look providers up
  through DHT messages routed over DSR source routes, and fetch data with
  UDP request/response exchanges.
* :mod:`repro.baselines.dht` — the Pastry-style key space and provider
  registry Ekta uses.

The baselines are reimplementations "in shape": they reproduce the
structural cost sources the paper attributes to IP-based solutions
(proactive vs reactive routing overhead, per-receiver unicast transfers,
transport retransmissions under route breakage) without claiming
line-for-line fidelity to the original codebases, which are not available.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base_peer": ("IpSwarmPeer", "SwarmDescriptor"),
    "bithoc": ("BithocPeer", "build_bithoc_peer"),
    "dht": ("DhtKeySpace", "DhtRegistry"),
    "ekta": ("EktaPeer", "build_ekta_peer"),
})
