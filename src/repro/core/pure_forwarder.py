"""Pure forwarders (Section V-A).

A pure forwarder is a node that does *not* run the DAPES application — it
only has an NDN forwarder.  It caches overheard Data in its Content Store
(serving future requests), probabilistically re-broadcasts received
Interests after a random wait, and suppresses names that recently failed to
bring Data back.
"""

from __future__ import annotations

from typing import Optional

from repro.ndn.face import BroadcastFace
from repro.ndn.forwarder import Forwarder, ForwarderConfig
from repro.ndn.strategy import ProbabilisticSuppressionStrategy
from repro.simulation import Simulator
from repro.wireless.medium import WirelessMedium
from repro.wireless.radio import Radio
from repro.core.namespace import DapesNamespace


class PureForwarderNode:
    """An NDN-only node that opportunistically relays and caches."""

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        node_id: str,
        forward_probability: float = 0.2,
        suppression_timeout: float = 10.0,
        cs_capacity: int = 4096,
        wifi_range: Optional[float] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.radio = Radio(sim, medium, node_id, wifi_range=wifi_range)
        self.strategy = ProbabilisticSuppressionStrategy(
            forward_probability=forward_probability,
            suppression_timeout=suppression_timeout,
        )
        self.forwarder = Forwarder(
            sim,
            node_id,
            config=ForwarderConfig(cs_capacity=cs_capacity),
            strategy=self.strategy,
        )
        self.forwarder.add_face(
            BroadcastFace(
                self.radio,
                protocol="dapes",
                classify=lambda packet: DapesNamespace.classify(packet.name),
            )
        )

    @property
    def state_size_bytes(self) -> int:
        return self.forwarder.state_size_bytes
