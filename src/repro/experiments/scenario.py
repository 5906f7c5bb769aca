"""Scenario builders: pluggable topology x protocol experiment assembly.

Historically this module hard-coded the paper's Fig. 7 topology (a 300 m x
300 m area with 4 stationary repositories and 40 mobile nodes) into one
builder per protocol family.  It now separates the two axes:

* **Topology** — where nodes sit and how they move — comes from the registry
  in :mod:`repro.experiments.topology` (``quadrant`` reproduces Fig. 7;
  ``clusters`` and ``corridor`` open new workloads), selected by
  :attr:`ExperimentConfig.topology`.
* **Protocol** — what runs on the nodes — comes from the
  :func:`register_protocol` registry in this module.  Every builder wires
  the same node roles (producer, measured downloaders, intermediate nodes,
  pure forwarders) and returns a :class:`Scenario` exposing the uniform
  hooks the trial runner needs.

:class:`ExperimentConfig` carries both the paper-scale parameters
(:meth:`ExperimentConfig.paper`) and reduced-scale presets used by the test
suite and the benchmark harness (:meth:`ExperimentConfig.small`,
:meth:`ExperimentConfig.tiny`); EXPERIMENTS.md documents the scaling, the
topology catalogue and the parallel trial runner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional

from repro.crypto.keys import KeyPair
from repro.crypto.trust import TrustAnchorStore
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium
from repro.baselines import DhtKeySpace, SwarmDescriptor, build_bithoc_peer, build_ekta_peer
from repro.core import (
    CollectionBuilder,
    DapesConfig,
    DapesNode,
    FileCollection,
    PureForwarderNode,
    build_dapes_peer,
    build_pure_forwarder,
)
from repro.churn import build_churn_manager
from repro.faults import build_fault_manager
from repro.experiments.topology import get_topology
from repro.registry import Registry

PRODUCER_IDENTITY = "/residents/producer"
COLLECTION_LABEL = "damaged-bridge"
COLLECTION_TIMESTAMP = 1533783192


@dataclass
class ExperimentConfig:
    """All knobs of one experiment run."""

    # Topology (paper defaults).
    area_size: float = 300.0
    stationary_nodes: int = 4
    mobile_downloaders: int = 20
    pure_forwarders: int = 10
    intermediate_nodes: int = 10
    min_speed: float = 2.0
    max_speed: float = 10.0
    wifi_range: float = 60.0
    loss_rate: float = 0.10
    topology: str = "quadrant"
    # Radio propagation (see repro.wireless.propagation): the backend, its
    # parameters, and — for topologies that emit obstacle geometry — the
    # fraction of candidate obstacles actually built.
    propagation: str = "unit_disk"
    propagation_params: Dict[str, object] = field(default_factory=dict)
    obstacle_density: float = 1.0

    # Workload (paper defaults: ten 1 MB files of 1 KB packets).
    num_files: int = 10
    file_size: int = 1_000_000
    packet_size: int = 1024

    # Run control.
    max_duration: float = 600.0
    trials: int = 10
    base_seed: int = 42
    percentile: float = 90.0
    workers: int = 1
    # Collect a performance profile per trial (repro.profiling); the profile
    # rides along in RunResult.profile and the CLI's --profile output.  Off
    # by default: profiles hold wall-clock numbers, which are not
    # deterministic, unlike every simulation result.
    profile: bool = False
    # Population dynamics (see repro.churn): the churn model name and its
    # parameters.  "none" keeps the fixed population — byte-identical to a
    # build without the churn subsystem.
    churn: str = "none"
    churn_params: Dict[str, object] = field(default_factory=dict)
    # Fault injection (see repro.faults): the fault model name and its
    # parameters.  "none" injects nothing — byte-identical to a build
    # without the fault subsystem (no manager, no RNG streams, no events).
    faults: str = "none"
    fault_params: Dict[str, object] = field(default_factory=dict)
    # Runtime safety/liveness invariant monitoring (repro.faults.invariants).
    # Pure observation — enabling it draws no randomness and schedules no
    # events, so it never perturbs results; a violation raises at trial end.
    invariants: bool = False

    # DAPES protocol configuration.
    dapes: DapesConfig = field(default_factory=DapesConfig)

    # ----------------------------------------------------------------- presets
    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper-scale configuration (slow to simulate in pure Python)."""
        return cls()

    @classmethod
    def small(cls) -> "ExperimentConfig":
        """Reduced scale used by the benchmark harness (shape-preserving)."""
        return cls(
            stationary_nodes=2,
            mobile_downloaders=6,
            pure_forwarders=3,
            intermediate_nodes=3,
            num_files=2,
            file_size=20_000,
            packet_size=1024,
            max_duration=400.0,
            trials=2,
            area_size=220.0,
        )

    @classmethod
    def tiny(cls) -> "ExperimentConfig":
        """Minimal configuration for fast unit/integration tests."""
        return cls(
            stationary_nodes=1,
            mobile_downloaders=3,
            pure_forwarders=1,
            intermediate_nodes=1,
            num_files=1,
            file_size=10_000,
            packet_size=1024,
            max_duration=240.0,
            trials=1,
            area_size=120.0,
            wifi_range=80.0,
        )

    @classmethod
    def preset(cls, name: str) -> "ExperimentConfig":
        """Look up a preset by name (``tiny``, ``small`` or ``paper``)."""
        presets = {"tiny": cls.tiny, "small": cls.small, "paper": cls.paper}
        try:
            return presets[name]()
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; available: {sorted(presets)}"
            ) from None

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Copy with selected fields replaced.

        ``dapes_`` prefixed keys reach the nested DAPES config; ``churn_``
        prefixed keys (other than the literal ``churn_params`` field) merge
        into ``churn_params``; ``fault_`` prefixed keys (other than the
        literal ``fault_params`` field) merge into ``fault_params`` — so a
        spec axis or CLI ``--axis`` can sweep e.g. ``churn_mean_session``
        or ``fault_mean_down`` directly.
        """
        dapes_overrides = {
            key[len("dapes_"):]: value for key, value in overrides.items() if key.startswith("dapes_")
        }
        churn_overrides = {
            key[len("churn_"):]: value
            for key, value in overrides.items()
            if key.startswith("churn_") and key != "churn_params"
        }
        fault_overrides = {
            key[len("fault_"):]: value
            for key, value in overrides.items()
            if key.startswith("fault_") and key != "fault_params"
        }
        plain = {
            key: value
            for key, value in overrides.items()
            if not key.startswith("dapes_")
            and (not key.startswith("churn_") or key == "churn_params")
            and (not key.startswith("fault_") or key == "fault_params")
        }
        config = replace(self, **plain)
        if dapes_overrides:
            config = replace(config, dapes=config.dapes.with_overrides(**dapes_overrides))
        if churn_overrides:
            merged = dict(config.churn_params)
            merged.update(churn_overrides)
            config = replace(config, churn_params=merged)
        if fault_overrides:
            merged = dict(config.fault_params)
            merged.update(fault_overrides)
            config = replace(config, fault_params=merged)
        return config

    # --------------------------------------------------------- serialization
    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe dict of every knob (nested DAPES config included)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        from repro.core import DapesConfig

        plain = dict(data)
        dapes = plain.pop("dapes", None)
        unknown = sorted(set(plain) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown ExperimentConfig field(s): {', '.join(unknown)}")
        config = cls(**plain)
        if dapes is not None:
            config = replace(config, dapes=DapesConfig(**dapes))
        return config

    # --------------------------------------------------------------- derived
    @property
    def downloader_count(self) -> int:
        """Nodes whose download time is measured (producer excluded)."""
        return self.stationary_nodes + self.mobile_downloaders - 1

    @property
    def total_packets(self) -> int:
        per_file = max(1, -(-self.file_size // self.packet_size))
        return per_file * self.num_files

    def channel(self) -> ChannelConfig:
        return ChannelConfig(
            wifi_range=self.wifi_range,
            loss_rate=self.loss_rate,
            propagation=self.propagation,
            propagation_params=dict(self.propagation_params),
        )


def build_collection(config: ExperimentConfig) -> FileCollection:
    """The shared file collection (a set of image files, per the paper's use case)."""
    builder = CollectionBuilder(
        COLLECTION_LABEL,
        COLLECTION_TIMESTAMP,
        packet_size=config.packet_size,
        producer=PRODUCER_IDENTITY,
    )
    for index in range(config.num_files):
        builder.add_file(f"image-{index:03d}", size_bytes=config.file_size)
    return builder.build()


# =============================================================== scenarios
@dataclass
class Scenario(ABC):
    """A fully wired simulation plus the uniform hooks the runner needs."""

    sim: Simulator
    medium: WirelessMedium
    config: ExperimentConfig
    protocol: str
    downloader_ids: List[str]
    # The churn lifecycle manager, or None for a fixed population (the
    # zero-churn byte-identity path: no manager, no events, no RNG streams).
    churn: Optional[object] = None
    # The fault manager, or None for a fault-free run (the zero-fault
    # byte-identity path, same discipline as churn).
    faults: Optional[object] = None

    @property
    def environment(self):
        """The obstacle geometry this scenario runs in (``None`` = open field)."""
        return self.medium.environment

    @abstractmethod
    def start(self) -> None:
        """Start every node's application."""

    @abstractmethod
    def watch_completion(self, callback: Callable[[str, float], None]) -> None:
        """Invoke ``callback(node_id, when)`` as each measured downloader finishes."""

    @abstractmethod
    def download_time(self, node_id: str) -> Optional[float]:
        """Seconds ``node_id`` took to finish, or ``None`` if it has not."""

    @abstractmethod
    def node_loads(self) -> Dict[str, Dict[str, float]]:
        """Per-node load counters for the run result."""


@dataclass
class DapesScenario(Scenario):
    """A fully wired DAPES simulation ready to run."""

    collection: FileCollection = None
    collection_id: str = ""
    producer_id: str = ""
    nodes: Dict[str, DapesNode] = field(default_factory=dict)
    pure_forwarders: Dict[str, PureForwarderNode] = field(default_factory=dict)

    def start(self) -> None:
        if self.faults is not None:
            self.faults.activate()
        if self.churn is not None:
            self.churn.activate()
            for node in self.nodes.values():
                if self.churn.online(node.node_id):
                    node.start()
            return
        for node in self.nodes.values():
            node.start()

    def downloaders(self) -> List[DapesNode]:
        return [self.nodes[node_id] for node_id in self.downloader_ids]

    def watch_completion(self, callback: Callable[[str, float], None]) -> None:
        def _on_complete(peer, collection_id, when) -> None:
            if collection_id == self.collection_id:
                callback(peer.node_id, when)

        for node_id in self.downloader_ids:
            self.nodes[node_id].peer.on_collection_complete(_on_complete)

    def download_time(self, node_id: str) -> Optional[float]:
        return self.nodes[node_id].peer.download_time(self.collection_id)

    def node_loads(self) -> Dict[str, Dict[str, float]]:
        return {node_id: node.peer.load.as_dict() for node_id, node in self.nodes.items()}


@dataclass
class IpScenario(Scenario):
    """A fully wired Bithoc or Ekta simulation ready to run."""

    descriptor: SwarmDescriptor = None
    seed_id: str = ""
    peers: Dict[str, object] = field(default_factory=dict)

    def start(self) -> None:
        if self.faults is not None:
            self.faults.activate()
        if self.churn is not None:
            self.churn.activate()
            for node_id, peer in self.peers.items():
                if self.churn.online(node_id):
                    peer.start()
            return
        for peer in self.peers.values():
            peer.start()

    def downloaders(self) -> List[object]:
        return [self.peers[node_id] for node_id in self.downloader_ids]

    def watch_completion(self, callback: Callable[[str, float], None]) -> None:
        def _on_complete(peer, collection_id, when) -> None:
            callback(peer.node_id, when)

        for node_id in self.downloader_ids:
            self.peers[node_id].on_complete(_on_complete)

    def download_time(self, node_id: str) -> Optional[float]:
        return self.peers[node_id].download_time()

    def node_loads(self) -> Dict[str, Dict[str, float]]:
        return {node_id: peer.load.as_dict() for node_id, peer in self.peers.items()}


# ================================================================ builders
PROTOCOLS = Registry("protocol")
register_protocol = PROTOCOLS.register
#: ``get_builder(protocol)`` instantiates the builder registered for ``protocol``.
get_builder = lambda protocol: PROTOCOLS.get(protocol)(protocol)
available_protocols = PROTOCOLS.names


class ScenarioBuilder(ABC):
    """Assembles the configured topology with one protocol on every node."""

    def __init__(self, protocol: str):
        self.protocol = protocol

    def world(self, config: ExperimentConfig, seed: int):
        """The parts every protocol shares: sim, node names, mobility, medium.

        The topology's environment (obstacle geometry, if it emits one) is
        threaded into the medium, where obstacle-aware propagation models
        ray-test links against it.
        """
        sim = Simulator(seed=seed)
        topology = get_topology(config.topology)
        names = topology.node_names(config)
        mobility = topology.build_mobility(config, sim, names)
        environment = topology.build_environment(config)
        medium = WirelessMedium(sim, mobility, config.channel(), environment=environment)
        churn = build_churn_manager(config, sim, medium, names)
        faults = build_fault_manager(config, sim, medium, names)
        return sim, names, medium, churn, faults

    @abstractmethod
    def build(self, config: ExperimentConfig, seed: int) -> Scenario:
        """Assemble a ready-to-run scenario."""


@register_protocol("dapes")
class DapesScenarioBuilder(ScenarioBuilder):
    """DAPES on every participating node, pure NDN forwarders elsewhere."""

    def build(self, config, seed):
        dapes_config = config.dapes
        sim, names, medium, churn, faults = self.world(config, seed)

        producer_key = KeyPair.generate(PRODUCER_IDENTITY, seed=b"producer-key")
        trust = TrustAnchorStore()
        trust.add_anchor_key(producer_key)

        collection = build_collection(config)
        collection_id = collection.collection_id

        nodes: Dict[str, DapesNode] = {}
        pure: Dict[str, PureForwarderNode] = {}

        producer_id = names["downloaders"][0]
        downloader_ids = names["downloaders"][1:] + names["stationary"]

        # Mobile peers (the producer plus the measured downloaders).
        for node_id in names["downloaders"]:
            node = build_dapes_peer(sim, medium, node_id, config=dapes_config, trust=trust,
                                    key=producer_key if node_id == producer_id else None)
            nodes[node_id] = node

        # Stationary repositories also download the collection of interest.
        for node_id in names["stationary"]:
            node = build_dapes_peer(sim, medium, node_id, config=dapes_config, trust=trust,
                                    cs_capacity=16384)
            nodes[node_id] = node

        # Intermediate DAPES nodes: run the application but join nothing.
        for node_id in names["intermediate"]:
            nodes[node_id] = build_dapes_peer(sim, medium, node_id, config=dapes_config, trust=trust)

        # Pure forwarders: NDN only.
        for node_id in names["pure"]:
            pure[node_id] = build_pure_forwarder(
                sim, medium, node_id, forward_probability=dapes_config.forwarding_probability
            )

        metadata = nodes[producer_id].peer.publish_collection(collection)
        for node_id in downloader_ids:
            nodes[node_id].peer.join(metadata.collection)

        if churn is not None:
            # Every node is built up front; the manager toggles presence.
            # Full DAPES nodes churn their whole application; pure
            # forwarders are radio-only (nothing to start or stop).
            for node_id in churn.node_ids:
                node = nodes.get(node_id)
                if node is not None:
                    churn.register(node_id, node.radio,
                                   start=node.start, stop=node.stop, kill=node.kill)
                elif node_id in pure:
                    churn.register(node_id, pure[node_id].radio)

        if faults is not None:
            # Recovery nudge: when a partition heals or a stall resumes, the
            # affected DAPES peers re-announce immediately instead of waiting
            # out the periodic discovery timer.  Pure forwarders have no
            # application to nudge.
            for node_id, node in sorted(nodes.items()):
                faults.register_heal(node_id, node.peer.reannounce)

        return DapesScenario(
            sim=sim,
            medium=medium,
            config=config,
            protocol=self.protocol,
            downloader_ids=downloader_ids,
            churn=churn,
            faults=faults,
            collection=collection,
            collection_id=collection_id,
            producer_id=producer_id,
            nodes=nodes,
            pure_forwarders=pure,
        )


@register_protocol("bithoc")
@register_protocol("ekta")
class IpScenarioBuilder(ScenarioBuilder):
    """One of the IP baselines (Bithoc or Ekta) on every node."""

    def build(self, config, seed):
        sim, names, medium, churn, faults = self.world(config, seed)

        per_file = max(1, -(-config.file_size // config.packet_size))
        descriptor = SwarmDescriptor(
            collection_id=f"{COLLECTION_LABEL}-{COLLECTION_TIMESTAMP}",
            total_pieces=per_file * config.num_files,
            piece_size=config.packet_size,
            files=config.num_files,
        )

        seed_id = names["downloaders"][0]
        downloader_ids = names["downloaders"][1:] + names["stationary"]
        swarm_members = [seed_id] + downloader_ids

        peers: Dict[str, object] = {}
        keyspace = DhtKeySpace()
        for node_id in swarm_members:
            if self.protocol == "bithoc":
                peer = build_bithoc_peer(sim, medium, node_id, descriptor, seed_all=(node_id == seed_id))
            else:
                peer = build_ekta_peer(sim, medium, node_id, descriptor, keyspace,
                                       seed_all=(node_id == seed_id))
            peers[node_id] = peer

        # The remaining nodes forward packets based on their routing tables.
        for node_id in names["pure"] + names["intermediate"]:
            if self.protocol == "bithoc":
                build_bithoc_peer(sim, medium, node_id, descriptor, forwarder_only=True)
            else:
                build_ekta_peer(sim, medium, node_id, descriptor, keyspace, forwarder_only=True)

        for peer in peers.values():
            peer.set_swarm(swarm_members)

        if churn is not None:
            # Swarm peers churn their application; forwarder-only nodes are
            # radio-only (their build functions return None by contract, so
            # the radio comes from the medium's registry).  Neither baseline
            # has a distinct abrupt path — kill falls back to stop.
            for node_id in churn.node_ids:
                peer = peers.get(node_id)
                if peer is not None:
                    churn.register(node_id, peer.ip_node.radio,
                                   start=peer.start, stop=peer.stop)
                else:
                    churn.register(node_id, medium.radio_of(node_id))

        return IpScenario(
            sim=sim,
            medium=medium,
            config=config,
            protocol=self.protocol,
            downloader_ids=downloader_ids,
            churn=churn,
            faults=faults,
            descriptor=descriptor,
            seed_id=seed_id,
            peers=peers,
        )
