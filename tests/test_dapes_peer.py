"""Unit and integration tests for the DAPES peer application."""

import ast
import inspect
from types import SimpleNamespace

import pytest

from repro.core import CollectionBuilder, DapesConfig, DapesNamespace, build_dapes_peer, namespace
from repro.core.advertisement import Advertising
from repro.core.config import DISCOVERY_PERIOD_ACTIVE, DISCOVERY_PERIOD_IDLE
from repro.core.rpf import Fetching
from repro.crypto import KeyPair, TrustAnchorStore
from repro.experiments import ExperimentConfig, get_builder
from repro.mobility import ScriptedMobility, StaticPlacement
from repro.ndn import Data, ForwarderConfig, Interest, Name
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium


def build_collection(files=1, file_size=8 * 1024, label="damaged-bridge"):
    builder = CollectionBuilder(label, 1533783192, packet_size=1024, producer="/residents/producer")
    for index in range(files):
        builder.add_file(f"file-{index}", size_bytes=file_size)
    return builder.build()


def build_pair(loss_rate=0.0, config=None, seed=3):
    sim = Simulator(seed=seed)
    mobility = StaticPlacement({"producer": (0, 0), "downloader": (20, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=loss_rate))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = config or DapesConfig()
    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=trust, key=key)
    downloader = build_dapes_peer(sim, medium, "downloader", config=config, trust=trust)
    return sim, medium, producer, downloader, trust


# ------------------------------------------------------------------ publishing
def test_publish_collection_creates_complete_session():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    session = producer.peer.sessions[metadata.collection]
    assert session.producer
    assert session.store.is_complete()
    assert session.metadata_segments  # signed metadata ready to serve
    assert producer.peer.has_metadata(metadata.collection)
    assert producer.peer.has_packet(metadata.collection, metadata.packet_name(0))


def test_metadata_segments_are_signed_by_producer_key(producer_key):
    sim, medium, producer, downloader, trust = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    session = producer.peer.sessions[metadata.collection]
    for segment in session.metadata_segments.values():
        assert trust.authenticate(str(segment.name), segment.content, segment.signature)


# ------------------------------------------------------------------ end-to-end
def test_two_peer_download_over_lossless_channel():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=60.0)
    assert downloader.peer.progress(metadata.collection) == 1.0
    assert downloader.peer.download_time(metadata.collection) is not None
    assert downloader.peer.sessions[metadata.collection].completion_time is not None


def test_two_peer_download_over_lossy_channel():
    sim, medium, producer, downloader, _ = build_pair(loss_rate=0.2, seed=4)
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=240.0)
    assert downloader.peer.progress(metadata.collection) == 1.0
    assert downloader.peer.load.retransmissions > 0


def test_digest_metadata_format_end_to_end():
    config = DapesConfig(metadata_format="digest")
    sim, medium, producer, downloader, _ = build_pair(config=config)
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=90.0)
    assert downloader.peer.progress(metadata.collection) == 1.0


def test_metadata_interest_with_forged_digest_is_not_answered():
    """An Interest naming a different metadata digest must not get our segment."""
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    peer = producer.peer
    forged = Interest(name=DapesNamespace.metadata_name(metadata.collection, "0" * 16, segment=0))
    peer.init.interest(forged)
    assert not peer._pending_responses
    genuine = metadata.name(segment=0)
    peer.init.interest(Interest(name=genuine))
    assert list(peer._pending_responses) == [genuine]
    # A prefix Interest (no segment component) is satisfied by segment 0 only
    # when it says it can be a prefix.
    peer.cancel_response(genuine)
    peer.init.interest(Interest(name=metadata.name()))
    assert not peer._pending_responses
    peer.init.interest(Interest(name=metadata.name(), can_be_prefix=True))
    assert list(peer._pending_responses) == [genuine]


def test_untrusted_producer_is_rejected():
    sim = Simulator(seed=5)
    mobility = StaticPlacement({"producer": (0, 0), "downloader": (20, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    rogue_key = KeyPair.generate("/rogue", seed=b"rogue")
    empty_trust = TrustAnchorStore()  # the downloader trusts nobody
    config = DapesConfig()
    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=empty_trust, key=rogue_key)
    downloader = build_dapes_peer(sim, medium, "downloader", config=config, trust=empty_trust)
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    producer.start()
    downloader.start()
    sim.run(until=30.0)
    session = downloader.peer.sessions[metadata.collection]
    assert session.distrusted
    assert session.metadata is None
    assert downloader.peer.progress(metadata.collection) == 0.0


def test_download_time_none_before_completion():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    assert downloader.peer.download_time(metadata.collection) is None
    assert downloader.peer.progress(metadata.collection) == 0.0


def test_completion_callback_fired_once():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    completions = []
    downloader.peer.on_collection_complete(lambda peer, cid, when: completions.append((peer.node_id, cid)))
    producer.start()
    downloader.start()
    sim.run(until=60.0)
    assert completions == [("downloader", metadata.collection)]


def test_discovery_period_adapts_to_neighbour_presence():
    sim, medium, producer, downloader, _ = build_pair()
    peer = downloader.peer
    assert peer.discovery.period() == DISCOVERY_PERIOD_IDLE
    peer.discovery.touch("producer")
    assert peer.discovery.period() == DISCOVERY_PERIOD_ACTIVE


def test_third_peer_benefits_from_overhearing():
    """Two downloaders next to each other: one transmission can serve both."""
    sim = Simulator(seed=6)
    mobility = StaticPlacement({"producer": (0, 0), "d1": (20, 0), "d2": (25, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = DapesConfig()
    producer = build_dapes_peer(sim, medium, "producer", config=config, trust=trust, key=key)
    d1 = build_dapes_peer(sim, medium, "d1", config=config, trust=trust)
    d2 = build_dapes_peer(sim, medium, "d2", config=config, trust=trust)
    metadata = producer.peer.publish_collection(build_collection(file_size=16 * 1024))
    d1.peer.join(metadata.collection)
    d2.peer.join(metadata.collection)
    for node in (producer, d1, d2):
        node.start()
    sim.run(until=120.0)
    assert d1.peer.progress(metadata.collection) == 1.0
    assert d2.peer.progress(metadata.collection) == 1.0
    overheard = d1.peer.load.packets_overheard + d2.peer.load.packets_overheard
    assert overheard > 0, "broadcast data should serve peers that did not request it"
    total_packets = metadata.total_packets
    # Far fewer data transmissions than two fully independent downloads with
    # per-packet request/response and retransmissions would need.
    assert medium.stats.transmitted_by_kind["collection-data"] <= 5 * total_packets


def test_repository_downloads_everything_it_discovers():
    sim = Simulator(seed=7)
    mobility = StaticPlacement({"producer": (0, 0), "repo": (20, 0)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    producer = build_dapes_peer(sim, medium, "producer", config=DapesConfig(), trust=trust, key=key)
    repo = build_dapes_peer(
        sim, medium, "repo", config=DapesConfig().with_overrides(interested_in_all=True),
        trust=trust, cs_capacity=16384,
    )
    metadata = producer.peer.publish_collection(build_collection())
    producer.start()
    repo.start()
    sim.run(until=90.0)
    # The repository was never told to join, it discovered the collection.
    assert repo.peer.progress(metadata.collection) == 1.0
    collections_served = sum(
        1
        for session in repo.peer.sessions.values()
        if session.store is not None and session.store.bitmap.count() > 0
    )
    assert collections_served == 1


def test_carrier_delivers_collection_across_partitions():
    """A mobile carrier moves data between two segments that are never connected."""
    sim = Simulator(seed=8)
    mobility = ScriptedMobility()
    mobility.add_static_node("producer", 0.0, 0.0)
    mobility.add_static_node("remote", 300.0, 0.0)
    mobility.add_node("carrier", [(0.0, 10.0, 0.0), (60.0, 10.0, 0.0), (120.0, 290.0, 0.0), (400.0, 290.0, 0.0)])
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=50.0, loss_rate=0.05))
    key = KeyPair.generate("/residents/producer", seed=b"producer-key")
    trust = TrustAnchorStore()
    trust.add_anchor_key(key)
    config = DapesConfig()
    nodes = {
        node_id: build_dapes_peer(sim, medium, node_id, config=config, trust=trust,
                                  key=key if node_id == "producer" else None)
        for node_id in ("producer", "carrier", "remote")
    }
    metadata = nodes["producer"].peer.publish_collection(build_collection(file_size=6 * 1024))
    nodes["carrier"].peer.join(metadata.collection)
    nodes["remote"].peer.join(metadata.collection)
    for node in nodes.values():
        node.start()
    sim.run(until=400.0)
    carrier_time = nodes["carrier"].peer.download_time(metadata.collection)
    remote_time = nodes["remote"].peer.download_time(metadata.collection)
    assert carrier_time is not None and remote_time is not None
    assert remote_time > carrier_time  # the remote peer could only start after the carrier arrived


def test_state_size_and_load_counters_populate():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection())
    downloader.peer.join(metadata.collection)
    answered = []
    put_data = producer.peer.app_face.put_data

    def spy(data):
        answered.append(data.name)
        put_data(data)

    producer.peer.app_face.put_data = spy
    producer.start()
    downloader.start()
    sim.run(until=60.0)
    assert downloader.peer.state_size_bytes > 0
    load = downloader.peer.load
    assert load.packets_downloaded > 0
    assert load.messages_sent > 0
    assert load.context_switches > 0
    assert load.system_calls > 0
    assert load.memory_overhead_mb >= 0.0
    # The producer answered packet Interests from its store.
    assert any(DapesNamespace.classify(name) == "collection-data" for name in answered)


# ------------------------------------------------------------ packet-kind table
# Every peer event is one lookup, peer._parts[DapesNamespace.classify(name)],
# into four parts: discovery, secure initialization ("metadata"),
# advertisements ("bitmap") and data fetching ("collection-data").
EVENTS = ("interest", "overheard", "data", "expired")


def _joined_pair():
    sim, medium, producer, downloader, _ = build_pair()
    metadata = producer.peer.publish_collection(build_collection(file_size=4 * 1024))
    downloader.peer.join(metadata.collection)
    return producer.peer, downloader.peer, metadata


def _names(peer, other, metadata):
    """Every kind of name the peer builds, a foreign packet name and a non-packet name."""
    return [
        DapesNamespace.discovery_name(other.node_id, 1),
        DapesNamespace.bitmap_name(peer.node_id, metadata.collection, 1),
        metadata.name(segment=0),
        metadata.packet_name(0),
        Name("/other/file/0"),
        Name("/x"),
    ]


def _entry_points(peer):
    """The four ways a packet reaches a peer, each with the part event it must raise."""
    return [
        ("app Interest", "interest", lambda name: peer.app_face.on_interest(Interest(name=name))),
        ("overheard Interest", "overheard", lambda name: peer.observe_interest(Interest(name=name))),
        ("Data", "data", lambda name: peer.on_data(Data(name=name, content=b"?"))),
        ("PIT expiry", "expired", lambda name: peer.on_pit_expired(SimpleNamespace(name=name))),
    ]


def test_data_reaches_the_peer_once_from_the_air_or_from_the_content_store(monkeypatch):
    sim, medium, producer, downloader, _ = build_pair()
    received = []
    monkeypatch.setattr(downloader.peer.fetching, "data", received.append)
    # Data on the air answering the peer's own Interest: the strategy hands it
    # over at reception, and the app face does not hand it over again.
    answer = Data(name=Name("/other/file/0"), content=b"x")
    downloader.peer.express(Interest(name=answer.name))
    sim.run(until=0.5)
    producer.peer.app_face.put_data(answer)
    sim.run(until=1.0)
    assert received == [answer]
    # A Content Store answer comes through the app face.
    downloader.peer.express(Interest(name=answer.name))
    sim.run(until=1.5)
    assert received == [answer, answer]
    assert downloader.forwarder.stats.cs_hits_served == 1


def test_the_table_is_keyed_by_every_kind_classify_returns():
    producer, downloader, metadata = _joined_pair()
    tree = ast.parse(inspect.getsource(namespace._classify))
    kinds = {node.value.value for node in ast.walk(tree) if isinstance(node, ast.Return)}
    for peer, other in ((producer, downloader), (downloader, producer)):
        assert set(peer._parts) == kinds
        assert {DapesNamespace.classify(name) for name in _names(peer, other, metadata)} == kinds


@pytest.mark.parametrize("role", ["producer", "downloader"])
def test_every_event_reaches_exactly_the_part_for_its_kind(role, monkeypatch):
    producer, downloader, metadata = _joined_pair()
    peer, other = (producer, downloader) if role == "producer" else (downloader, producer)
    calls = []
    for part in set(peer._parts.values()):
        for event in EVENTS:
            def spy(*args, _part=part, _event=event, _real=getattr(part, event)):
                calls.append((_part, _event))
                return _real(*args)
            monkeypatch.setattr(part, event, spy)
    for name in _names(peer, other, metadata):
        owner = peer._parts[DapesNamespace.classify(name)]
        for label, event, deliver in _entry_points(peer):
            calls.clear()
            deliver(name)  # a KeyError here is a kind the table does not hold
            assert calls == [(owner, event)], f"{label} {name}"
    peer.sim.run(until=5.0)  # the responses the events scheduled go out cleanly


# --------------------------------------------------------------- pinned findings
def _run_small(**overrides):
    """One ``small()`` DAPES trial at seed 42, stopped when every downloader finishes."""
    config = ExperimentConfig.small().with_overrides(**overrides)
    scenario = get_builder("dapes").build(config, 42)
    finished = set()

    def on_complete(node_id, when):
        finished.add(node_id)
        if len(finished) == len(scenario.downloader_ids):
            scenario.sim.stop()

    scenario.watch_completion(on_complete)
    scenario.start()
    scenario.sim.run(until=config.max_duration)
    return scenario


def _repeated_receptions(monkeypatch, part, event):
    """Run ``_run_small()`` with ``part.event`` spied on; return ``(calls, repeats)``.

    One reception is one (peer, object) pair arriving within the forwarder's
    ``forwarding_delay``: no frame is heard twice that fast, but the app face
    would hand the peer an object it had just handled that much later.
    """
    window = ForwarderConfig().forwarding_delay * 1.05
    last_seen = {}
    calls, repeats = [], []
    real = getattr(part, event)

    def spy(self, carried):
        key = (self.peer.node_id, id(carried))
        seen = last_seen.get(key)
        if seen is not None and seen[1] is carried and self.sim.now - seen[0] <= window:
            repeats.append(key[0])
        last_seen[key] = (self.sim.now, carried)
        calls.append(key[0])
        return real(self, carried)

    monkeypatch.setattr(part, event, spy)
    _run_small()
    return calls, repeats


def test_each_received_data_frame_reaches_the_fetch_part_once(monkeypatch):
    calls, repeats = _repeated_receptions(monkeypatch, Fetching, "data")
    assert calls
    assert repeats == []


def test_each_bitmap_reception_reaches_advertising_record_once(monkeypatch):
    # A bitmap travels in a bitmap Interest's parameters (recorded when the
    # Interest is overheard) or in a bitmap Data's content (recorded when the
    # Data is received); the answering part does not record it again.
    calls, repeats = _repeated_receptions(monkeypatch, Advertising, "record")
    assert calls
    assert repeats == []


@pytest.mark.parametrize("exchange", ["interleaved", "before"])
def test_no_bitmap_interest_targets_a_name_that_is_not_a_node(exchange, monkeypatch):
    targets = []
    real = Advertising.request

    def request(self, session, target):
        targets.append(target)
        real(self, session, target)

    monkeypatch.setattr(Advertising, "request", request)
    scenario = _run_small(dapes_bitmap_exchange=exchange)
    nodes = set(scenario.nodes) | set(scenario.pure_forwarders)
    assert targets
    assert [target for target in targets if target not in nodes] == []
