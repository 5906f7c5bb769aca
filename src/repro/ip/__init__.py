"""IP-based substrate used by the baseline protocols (Bithoc, Ekta).

The paper compares DAPES against IP-based MANET file-sharing solutions; this
package provides the pieces those baselines need on top of the same shared
wireless medium DAPES uses:

* :mod:`repro.ip.packet` — IP-like packets with TTL and protocol labels;
* :mod:`repro.ip.netstack` — per-node stack: routing-table driven unicast
  forwarding, link-layer broadcast, delivery-failure feedback to the routing
  protocol;
* :mod:`repro.ip.udp` — a datagram service with port demultiplexing;
* :mod:`repro.ip.tcp` — a TCP-like reliable byte/message channel with
  acknowledgements, retransmissions and a fixed window (sufficient to model
  the transport overhead of Bithoc over multi-hop wireless paths).

Node identifiers double as addresses: the paper points out that IP address
auto-configuration in off-the-grid settings is an unsolved problem in itself;
granting the baselines free, collision-free addressing is a conservative
simplification in their favour, and this paragraph is where it is stated.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "netstack": ("IpNode",),
    "packet": ("IpPacket",),
    "tcp": ("ReliableTransport",),
    "udp": ("UdpService",),
})
