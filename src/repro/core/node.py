"""The factory that wires a complete DAPES node together.

A node consists of a radio attached to the shared wireless medium, an NDN
forwarder with a broadcast face and an application face, a forwarding
strategy and a DAPES peer application.  A pure forwarder has no application
and is a :class:`~repro.core.pure_forwarder.PureForwarderNode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.keys import KeyPair
from repro.crypto.trust import TrustAnchorStore
from repro.ndn.face import AppFace, BroadcastFace
from repro.ndn.forwarder import Forwarder, ForwarderConfig
from repro.simulation import Simulator
from repro.wireless.medium import WirelessMedium
from repro.wireless.radio import Radio
from repro.core.config import DapesConfig
from repro.core.intermediate import DapesForwardingStrategy
from repro.core.namespace import DapesNamespace
from repro.core.peer import DapesPeer


@dataclass
class DapesNode:
    """A fully assembled DAPES node (radio + forwarder + application)."""

    node_id: str
    radio: Radio
    forwarder: Forwarder
    strategy: DapesForwardingStrategy
    peer: DapesPeer

    def start(self) -> None:
        self.peer.start()

    def stop(self) -> None:
        self.peer.stop()

    def kill(self) -> None:
        """Abrupt departure (churn fault injection): nothing more is sent."""
        self.peer.kill()


def build_dapes_peer(
    sim: Simulator,
    medium: WirelessMedium,
    node_id: str,
    config: Optional[DapesConfig] = None,
    trust: Optional[TrustAnchorStore] = None,
    key: Optional[KeyPair] = None,
    wifi_range: Optional[float] = None,
    cs_capacity: int = 4096,
) -> DapesNode:
    """Assemble a DAPES peer node (downloader, producer or intermediate).

    A stationary repository is a peer with ``interested_in_all=True`` in its
    config (it downloads every collection it discovers), usually with a
    larger ``cs_capacity``.
    """
    config = config if config is not None else DapesConfig()
    radio = Radio(sim, medium, node_id, wifi_range=wifi_range)
    forwarder = Forwarder(sim, node_id, config=ForwarderConfig(cs_capacity=cs_capacity))
    app_face = forwarder.add_face(AppFace(name=f"app:{node_id}"))
    forwarder.add_face(
        BroadcastFace(
            radio,
            protocol="dapes",
            classify=lambda packet: DapesNamespace.classify(packet.name),
            name=f"wifi:{node_id}",
        )
    )
    peer = DapesPeer(
        sim=sim,
        node_id=node_id,
        forwarder=forwarder,
        app_face=app_face,
        config=config,
        key=key,
        trust=trust,
    )
    strategy = DapesForwardingStrategy(
        peer=peer,
        knowledge=peer.knowledge,
        multi_hop=config.multi_hop,
        forwarding_probability=config.forwarding_probability,
    )
    forwarder.set_strategy(strategy)
    return DapesNode(
        node_id=node_id,
        radio=radio,
        forwarder=forwarder,
        strategy=strategy,
        peer=peer,
    )

