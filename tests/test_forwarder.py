"""Unit and integration tests for the NDN forwarder and strategies."""

import pytest

from repro.core.intermediate import DapesForwardingStrategy
from repro.ndn import (
    AppFace,
    BroadcastFace,
    Data,
    Forwarder,
    ForwarderConfig,
    Interest,
    MulticastStrategy,
    Name,
    ProbabilisticSuppressionStrategy,
)
from repro.wireless import Radio


def build_pair(lossless_world):
    """Two forwarders connected over the wireless medium, app faces attached."""
    sim, mobility, medium = lossless_world
    nodes = {}
    for node_id in ("a", "b"):
        radio = Radio(sim, medium, node_id)
        forwarder = Forwarder(sim, node_id)
        app = forwarder.add_face(AppFace())
        wifi = forwarder.add_face(BroadcastFace(radio))
        nodes[node_id] = (forwarder, app, wifi)
    return sim, medium, nodes


def test_app_to_app_interest_data_exchange(lossless_world):
    sim, medium, nodes = build_pair(lossless_world)
    _, app_a, _ = nodes["a"]
    forwarder_b, app_b, _ = nodes["b"]
    app_b.on_interest = lambda interest: app_b.put_data(Data(name=interest.name, content=b"answer"))
    received = []
    app_a.on_data = received.append
    app_a.express_interest(Interest(name=Name("/test/1")))
    sim.run(until=2.0)
    assert len(received) == 1
    assert received[0].content == b"answer"


def test_data_is_cached_and_served_from_cs(lossless_world):
    sim, medium, nodes = build_pair(lossless_world)
    forwarder_a, app_a, _ = nodes["a"]
    _, app_b, _ = nodes["b"]
    app_b.on_interest = lambda interest: app_b.put_data(Data(name=interest.name, content=b"answer"))
    app_a.on_data = lambda data: None
    app_a.express_interest(Interest(name=Name("/test/1")))
    sim.run(until=2.0)
    transmissions_before = medium.stats.frames_transmitted
    # Second request is answered from a's own Content Store: nothing on the air.
    answered = []
    app_a.on_data = answered.append
    app_a.express_interest(Interest(name=Name("/test/1")))
    sim.run(until=4.0)
    assert answered and answered[0].content == b"answer"
    assert forwarder_a.stats.cs_hits_served >= 1
    assert medium.stats.frames_transmitted == transmissions_before


def test_pit_aggregation_prevents_duplicate_forwarding(sim):
    forwarder = Forwarder(sim, "n", strategy=MulticastStrategy())
    app_one = forwarder.add_face(AppFace())
    app_two = forwarder.add_face(AppFace())
    out = forwarder.add_face(AppFace())
    sent = []
    out.on_interest = sent.append
    # Two different consumers ask for the same name.
    app_one.express_interest(Interest(name=Name("/x")))
    app_two.express_interest(Interest(name=Name("/x")))
    sim.run(until=1.0)
    assert len(sent) == 1
    # Data comes back once and reaches both consumers.
    received = []
    app_one.on_data = lambda data: received.append("one")
    app_two.on_data = lambda data: received.append("two")
    out.put_data(Data(name=Name("/x"), content=b"v"))
    sim.run(until=2.0)
    assert sorted(received) == ["one", "two"]


def test_looping_interest_dropped(sim):
    forwarder = Forwarder(sim, "n", strategy=MulticastStrategy())
    face_one = forwarder.add_face(AppFace())
    face_two = forwarder.add_face(AppFace())
    interest = Interest(name=Name("/loop"))
    face_one.receive_interest(interest)
    face_two.receive_interest(interest)  # same nonce arrives from elsewhere: loop
    sim.run(until=1.0)
    assert forwarder.stats.loops_dropped == 1


def test_hop_limit_exhaustion_drops_interest(sim):
    forwarder = Forwarder(sim, "n", strategy=MulticastStrategy())
    face = forwarder.add_face(AppFace())
    exhausted = Interest(name=Name("/x"), hop_limit=1).clone_for_forwarding()
    assert exhausted.hop_limit == 0
    face.receive_interest(exhausted)
    sim.run(until=1.0)
    assert forwarder.stats.hop_limit_drops == 1


def test_unsolicited_data_dropped_unless_configured(sim):
    forwarder = Forwarder(sim, "n", config=ForwarderConfig(cache_unsolicited=False))
    face = forwarder.add_face(AppFace())
    face.put_data(Data(name=Name("/unsolicited"), content=b"x"))
    sim.run(until=1.0)
    assert forwarder.stats.unsolicited_data == 1
    assert Name("/unsolicited") not in forwarder.cs

    cached_forwarder = Forwarder(sim, "m", config=ForwarderConfig(cache_unsolicited=True))
    cached_face = cached_forwarder.add_face(AppFace())
    cached_face.put_data(Data(name=Name("/unsolicited"), content=b"x"))
    sim.run(until=2.0)
    assert Name("/unsolicited") in cached_forwarder.cs


def test_pit_entry_expires_and_notifies_strategy(sim):
    expired = []

    class RecordingStrategy(MulticastStrategy):
        def on_interest_expired(self, entry):
            expired.append(entry.name)

    forwarder = Forwarder(sim, "n", strategy=RecordingStrategy())
    face = forwarder.add_face(AppFace())
    face.express_interest(Interest(name=Name("/never-answered"), lifetime=0.5))
    sim.run(until=2.0)
    assert expired == [Name("/never-answered")]
    assert forwarder.stats.pit_expirations == 1


def test_state_size_accounts_for_tables(sim):
    forwarder = Forwarder(sim, "n")
    face = forwarder.add_face(AppFace())
    assert forwarder.state_size_bytes == 0
    face.put_data(Data(name=Name("/a"), content=b"x" * 64))
    face.express_interest(Interest(name=Name("/b")))
    sim.run(until=0.1)
    assert forwarder.state_size_bytes > 0


# ----------------------------------------------------- pure-forwarder strategy
def test_probabilistic_strategy_validation():
    with pytest.raises(ValueError):
        ProbabilisticSuppressionStrategy(forward_probability=1.5)
    with pytest.raises(ValueError):
        ProbabilisticSuppressionStrategy(min_wait=0.5, max_wait=0.1)


def test_probabilistic_strategy_zero_probability_never_forwards(lossless_world):
    sim, mobility, medium = lossless_world
    radio = Radio(sim, medium, "a")
    forwarder = Forwarder(sim, "a", strategy=ProbabilisticSuppressionStrategy(forward_probability=0.0))
    wifi = forwarder.add_face(BroadcastFace(radio))
    wifi.receive_interest(Interest(name=Name("/x")))
    sim.run(until=1.0)
    assert forwarder.stats.interests_forwarded == 0
    assert forwarder.strategy.interests_suppressed == 1


def test_probabilistic_strategy_always_forwards_with_probability_one(lossless_world):
    sim, mobility, medium = lossless_world
    radio_a = Radio(sim, medium, "a")
    radio_b = Radio(sim, medium, "b")
    heard = []
    radio_b.on_receive = lambda frame: heard.append(frame)
    forwarder = Forwarder(sim, "a", strategy=ProbabilisticSuppressionStrategy(forward_probability=1.0))
    app = forwarder.add_face(AppFace())
    forwarder.add_face(BroadcastFace(radio_a))
    app.express_interest(Interest(name=Name("/x")))
    sim.run(until=1.0)
    assert len(heard) == 1


def _relay(lossless_world, kind):
    """Node "a" with a wireless and an application face, forwarding with
    probability 1: a pure forwarder, or a DAPES node without knowledge (which
    falls back to the pure forwarder's draw and suppression)."""
    sim, mobility, medium = lossless_world
    if kind == "pure":
        strategy = ProbabilisticSuppressionStrategy(forward_probability=1.0, suppression_timeout=100.0)
    else:
        strategy = DapesForwardingStrategy(forwarding_probability=1.0, suppression_timeout=100.0)
    forwarder = Forwarder(sim, "a", strategy=strategy)
    wifi = forwarder.add_face(BroadcastFace(Radio(sim, medium, "a")))
    forwarder.add_face(AppFace())  # a second face so the Interest actually gets forwarded
    return sim, medium, strategy, wifi


def _check_suppression_after_unanswered_interest(lossless_world, kind):
    sim, medium, strategy, wifi = _relay(lossless_world, kind)
    wifi.receive_interest(Interest(name=Name("/coll/file/0"), lifetime=0.5))
    sim.run(until=2.0)
    assert strategy.suppressed_prefixes  # the forwarded Interest brought nothing back
    # A later Interest under the suppressed prefix is not re-broadcast.
    on_air = medium.stats.frames_transmitted
    suppressed = strategy.interests_suppressed
    wifi.receive_interest(Interest(name=Name("/coll/file/1"), lifetime=0.5))
    sim.run(until=3.0)
    assert medium.stats.frames_transmitted == on_air
    assert strategy.interests_suppressed == suppressed + 1


def _check_suppression_cleared_by_data(lossless_world, kind):
    sim, medium, strategy, wifi = _relay(lossless_world, kind)
    wifi.receive_interest(Interest(name=Name("/coll/file/0"), lifetime=0.5))
    sim.run(until=2.0)
    assert strategy.suppressed_prefixes
    wifi.receive_data(Data(name=Name("/coll/file/0"), content=b"late"))
    sim.run(until=2.5)
    assert not strategy.suppressed_prefixes


def test_suppression_after_unanswered_interest(lossless_world):
    _check_suppression_after_unanswered_interest(lossless_world, "pure")


def test_suppression_cleared_by_data(lossless_world):
    _check_suppression_cleared_by_data(lossless_world, "pure")


def test_dapes_suppression_after_unanswered_interest(lossless_world):
    _check_suppression_after_unanswered_interest(lossless_world, "dapes")


def test_dapes_suppression_cleared_by_data(lossless_world):
    _check_suppression_cleared_by_data(lossless_world, "dapes")


def test_pure_forwarder_caches_overheard_data(lossless_world):
    sim, mobility, medium = lossless_world
    radio = Radio(sim, medium, "a")
    strategy = ProbabilisticSuppressionStrategy()
    forwarder = Forwarder(sim, "a", strategy=strategy)
    wifi = forwarder.add_face(BroadcastFace(radio))
    wifi.receive_data(Data(name=Name("/overheard/1"), content=b"x"))
    sim.run(until=1.0)
    assert Name("/overheard/1") in forwarder.cs
