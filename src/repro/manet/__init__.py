"""MANET routing protocols used by the IP-based baselines.

* :mod:`repro.manet.dsdv` — Destination-Sequenced Distance Vector, the
  proactive protocol Bithoc relies on (periodic full-table broadcasts plus
  triggered updates; freshness via per-destination sequence numbers).
* :mod:`repro.manet.dsr` — Dynamic Source Routing, the reactive protocol the
  Ekta DHT is integrated with (on-demand route discovery via flooding,
  source-routed data packets, route caches, route error reports).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "dsdv": ("DsdvRouting",),
    "dsr": ("DsrRouting",),
    "routing_base": ("RoutingProtocol",),
})
