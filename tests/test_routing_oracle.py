"""The DSDV / DSR handlers and Ekta's engine tick against their old forms.

Production handlers cost what a message changes: DSDV updates a route in
place and skips the expiry sweep while no route can be stale, DSR checks a
broken link hop by hop only in routes that contain its far end, and Ekta
walks its missing pieces file by file as one int.  The reference versions
live in ``tests/oracles.py``; these tests drive random histories through
both and require the same tables (content and order), the same frames,
the same random draws and the same events.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import DhtKeySpace, SwarmDescriptor, build_ekta_peer
from repro.baselines.ekta import _LookupState
from repro.experiments import ExperimentConfig, run_protocol_trial
from repro.ip import IpNode, IpPacket
from repro.manet import DsdvRouting, DsrRouting
from repro.mobility import StaticPlacement
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, WirelessMedium

from oracles import OracleDsdvRouting, OracleDsrRouting, OracleEktaPeer, old_baselines

OWN = "x"
NODES = [OWN, "a", "b", "c", "d"]
# Steps are multiples of 0.25 s and lifetimes whole or half seconds, so a
# route often sits exactly at its lifetime when it is asked for.
STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


def one_node_world(routing):
    """``routing`` on node ``x`` alone, with every link broadcast recorded."""
    sim = Simulator(seed=3)
    medium = WirelessMedium(sim, StaticPlacement({OWN: (0.0, 0.0)}), ChannelConfig())
    node = IpNode(sim, medium, OWN)
    node.attach_routing(routing)
    sent = []
    broadcast = node.broadcast

    def spy(payload, size_bytes, kind):
        sent.append((sim.now, kind, size_bytes, repr(payload)))
        broadcast(payload, size_bytes, kind)

    node.broadcast = spy
    return sim, sent


def run_history(history, routings, table, stream):
    """Apply ``history`` to each routing; after every step all must agree."""
    worlds = [one_node_world(routing) for routing in routings]
    for routing in routings:
        routing.start()

    def observe():
        views = [
            (table(routing), sent[:], sim.now, sim.events_processed, sim.pending_events,
             sim.rng(stream).getstate())
            for routing, (sim, sent) in zip(routings, worlds)
        ]
        assert all(view == views[0] for view in views[1:])

    observe()
    for step in history:
        answers = []
        for routing, (sim, _) in zip(routings, worlds):
            answers.append(step(routing, sim))
        assert all(answer == answers[0] for answer in answers[1:])
        observe()


def advance(dt, query=None):
    """Run the clock ``dt`` seconds on, then answer ``query`` (a step) if given."""

    def step(routing, sim):
        sim.run(until=sim.now + dt)
        return None if query is None else query(routing, sim)

    return step


# ----------------------------------------------------------------------- DSDV
def dsdv_table(routing):
    return (
        [
            (destination, route.destination, route.next_hop, route.metric, route.sequence, route.installed_at)
            for destination, route in routing._routes.items()
        ],
        routing._triggered_pending,
    )


def dsdv_update(sender, entries):
    def step(routing, sim):
        routing._on_update(sender, ("dsdv", list(entries)), "dsdv-update")

    return step


def dsdv_failure(next_hop):
    def step(routing, sim):
        packet = IpPacket(src=OWN, dst=next_hop, protocol="udp", payload=(1, "x"), payload_size=8)
        routing.on_delivery_failure(packet, next_hop)

    return step


def dsdv_query(destination):
    def step(routing, sim):
        return routing.next_hop(destination)

    return step


dsdv_steps = st.one_of(
    st.builds(
        dsdv_update,
        st.sampled_from(NODES[1:]),
        st.lists(st.tuples(st.sampled_from(NODES), st.integers(0, 4), st.integers(0, 8)), max_size=8),
    ),
    st.builds(dsdv_failure, st.sampled_from(NODES[1:])),
    st.builds(advance, STEPS),
    st.builds(dsdv_query, st.sampled_from(NODES)),
    # A lookup right after the clock moved is where a wrongly skipped sweep shows.
    st.builds(advance, STEPS, st.builds(dsdv_query, st.sampled_from(NODES))),
)


@settings(max_examples=200, deadline=None)
@given(
    history=st.lists(dsdv_steps, min_size=10, max_size=60),
    lifetime=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    interval=st.sampled_from([0.5, 1.0, 2.5]),
)
def test_dsdv_handlers_are_the_old_handlers(history, lifetime, interval):
    routings = [
        cls(update_interval=interval, route_lifetime=lifetime, triggered_update_delay=0.1)
        for cls in (DsdvRouting, OracleDsdvRouting)
    ]
    run_history(history, routings, dsdv_table, f"dsdv.{OWN}")


def test_dsdv_skipped_sweep_still_expires_on_time():
    """A route installed after the last sweep cannot hide an older one from expiry."""
    routing = DsdvRouting(update_interval=100.0, route_lifetime=2.0)
    sim, _ = one_node_world(routing)
    routing._on_update("a", ("dsdv", [("old", 0, 2)]), "dsdv-update")
    sim.run(until=1.5)
    routing._on_update("b", ("dsdv", [("new", 0, 2)]), "dsdv-update")
    assert routing.next_hop("old") == "a"  # 1.5 s old: kept
    sim.run(until=2.0)
    assert routing.next_hop("old") == "a"  # exactly the lifetime: kept
    sim.run(until=2.25)
    assert routing.next_hop("old") is None
    assert routing.next_hop("new") == "b"
    sim.run(until=3.75)
    assert routing.next_hop("new") is None


# ------------------------------------------------------------------------ DSR
def dsr_table(routing):
    return (
        [(destination, list(entry.route), entry.installed_at) for destination, entry in routing._cache.items()],
        dict(routing._pending_discovery),
        {destination: len(queue) for destination, queue in routing._waiting_packets.items()},
    )


def dsr_install(route):
    def step(routing, sim):
        routing._install_route(list(route), sim.now)

    return step


def dsr_rerr(sender, link):
    def step(routing, sim):
        routing._on_rerr(sender, ("rerr", link), "dsr-rerr")

    return step


def dsr_failure(next_hop, src, dst):
    def step(routing, sim):
        packet = IpPacket(src=src, dst=dst, protocol="udp", payload=(1, "x"), payload_size=8)
        routing.on_delivery_failure(packet, next_hop)

    return step


def dsr_query(destination):
    def step(routing, sim):
        route = routing.route_to(destination)
        return None if route is None else list(route)

    return step


dsr_steps = st.one_of(
    # Routes start at this node and may revisit any node, so a link can
    # appear after a hop that repeats its far end.
    st.builds(dsr_install, st.lists(st.sampled_from(NODES), min_size=1, max_size=6).map(lambda rest: [OWN] + rest)),
    st.builds(dsr_rerr, st.sampled_from(NODES[1:]), st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))),
    st.builds(dsr_failure, st.sampled_from(NODES[1:]), st.sampled_from([OWN, "a"]), st.sampled_from(NODES[1:])),
    st.builds(advance, STEPS),
    st.builds(dsr_query, st.sampled_from(NODES)),
    st.builds(advance, STEPS, st.builds(dsr_query, st.sampled_from(NODES))),
)


@settings(max_examples=200, deadline=None)
@given(history=st.lists(dsr_steps, min_size=10, max_size=60), lifetime=st.sampled_from([1.0, 2.0, 30.0]))
def test_dsr_handlers_are_the_old_handlers(history, lifetime):
    routings = [cls(route_lifetime=lifetime, discovery_timeout=0.5) for cls in (DsrRouting, OracleDsrRouting)]
    run_history(history, routings, dsr_table, f"dsr.{OWN}")


def test_dsr_purge_finds_a_link_behind_a_repeated_hop():
    routing = DsrRouting()
    one_node_world(routing)
    routing._install_route([OWN, "b", "a", "b", "c"], 0.0)
    routing._install_route([OWN, "a", "d"], 0.0)
    routing._on_rerr("b", ("rerr", ("b", "c")), "dsr-rerr")
    assert routing.route_to("c") is None
    assert routing.route_to("d") == [OWN, "a", "d"]
    routing._on_rerr("a", ("rerr", ("a", "d")), "dsr-rerr")
    assert routing.route_to("d") is None


# ----------------------------------------------------------------------- Ekta
MEMBERS = [OWN, "p1", "p2", "p3"]
# Collections whose files' DHT roots include this peer for some files and
# not others: a lookup of a file rooted here answers from the peer's own
# registry at once, so the file gains providers in the middle of a tick.
COLLECTIONS = ["c", "e", "s1", "s2"]


@st.composite
def ekta_states(draw):
    files = draw(st.integers(1, 6))
    total = draw(st.integers(1, 48))
    per_file = max(1, -(-total // files))
    file_count = -(-total // per_file)
    pieces = st.integers(0, total - 1)
    file_ids = st.integers(0, file_count - 1)
    return {
        "files": files,
        "total": total,
        "have": draw(st.sets(pieces)),
        "outstanding": draw(st.dictionaries(pieces, st.tuples(st.sampled_from(MEMBERS), st.sampled_from([-5.0, 2.5])),
                                            max_size=6)),
        # Often one provider: then the pick draws nothing, and a refresh that
        # replaces the list mid-tick is visible in the random draws.
        "providers": draw(st.dictionaries(file_ids, st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=3,
                                                             unique=True))),
        "pending": draw(st.dictionaries(file_ids, st.sampled_from([-5.0, 0.0]))),
        "published": draw(st.sets(st.tuples(file_ids, st.sampled_from(MEMBERS)))),
        "pipeline": draw(st.integers(1, 6)),
        "collection": draw(st.sampled_from(COLLECTIONS)),
        "seed": draw(st.integers(0, 50)),
    }


def ekta_world(state):
    """Peer ``x`` (plus three forwarders) in the state drawn, its sends recorded."""
    sim = Simulator(seed=state["seed"])
    positions = {member: (20.0 * index, 0.0) for index, member in enumerate(MEMBERS)}
    medium = WirelessMedium(sim, StaticPlacement(positions), ChannelConfig(wifi_range=30.0))
    keyspace = DhtKeySpace()
    descriptor = SwarmDescriptor(state["collection"], total_pieces=state["total"], piece_size=64, files=state["files"])
    peer = build_ekta_peer(sim, medium, OWN, descriptor, keyspace)
    for member in MEMBERS[1:]:
        build_ekta_peer(sim, medium, member, descriptor, keyspace, forwarder_only=True)
        keyspace.add_member(member)
    peer.pipeline_size = state["pipeline"]
    for piece in state["have"]:
        peer.bitmap.set(piece)
    peer._outstanding = dict(state["outstanding"])
    peer._providers = {file_index: list(providers) for file_index, providers in state["providers"].items()}
    peer._pending_lookups = {
        file_index: _LookupState(file_index, sent_at) for file_index, sent_at in sorted(state["pending"].items())
    }
    for file_index, provider in sorted(state["published"]):
        peer.registry.publish(peer._file_key(file_index), provider)
    sent = []
    send = peer.udp.send

    def spy(dst, port, payload, size, kind):
        sent.append((dst, port, repr(payload), size, kind))
        return send(dst, port, payload, size, kind=kind)

    peer.udp.send = spy
    return sim, peer, sent


def ekta_view(sim, peer, sent):
    return (
        list(peer._outstanding.items()),
        {file_index: list(providers) for file_index, providers in peer._providers.items()},
        list(peer._pending_lookups),
        peer._held_files(),
        sent,
        peer._rng.getstate(),
        sim.pending_events,
    )


@settings(max_examples=500, deadline=None)
@given(state=ekta_states())
def test_ekta_tick_is_the_old_piece_walk(state):
    sim, peer, sent = ekta_world(state)
    with old_baselines():
        old_sim, old_peer, old_sent = ekta_world(state)
    assert isinstance(old_peer, OracleEktaPeer)
    # At 3 s the requests drawn at -5 s have timed out and those at 2.5 s
    # have not; likewise for the lookups drawn at -5 s and at 0 s.
    for clock in (sim, old_sim):
        clock.run(until=3.0)
    peer._engine_tick()
    old_peer._engine_tick()
    assert ekta_view(sim, peer, sent) == ekta_view(old_sim, old_peer, old_sent)


def test_ekta_first_request_picks_from_the_list_before_the_refresh():
    """The refresh of a file rooted here replaces its provider list mid-tick."""
    # Collection "e" roots file 0 at x; seed 2's first draw (0.113) refreshes.
    state = {
        "files": 2, "total": 8, "have": set(), "outstanding": {}, "providers": {0: ["p1"]}, "pending": {},
        "published": {(0, "p2"), (0, "p3")}, "pipeline": 2, "collection": "e", "seed": 2,
    }
    sim, peer, sent = ekta_world(state)
    with old_baselines():
        old_sim, old_peer, old_sent = ekta_world(state)
    peer._engine_tick()
    old_peer._engine_tick()
    assert peer._providers[0] == ["p2", "p3"]
    assert peer._outstanding[0][0] == "p1"
    assert peer._outstanding[1][0] in ("p2", "p3")
    assert ekta_view(sim, peer, sent) == ekta_view(old_sim, old_peer, old_sent)


# --------------------------------------------------------------- whole trials
@pytest.mark.parametrize(
    "protocol, overrides, seed",
    [
        ("bithoc", {}, 42),
        ("bithoc", {"mobile_downloaders": 6}, 7),
        ("ekta", {}, 42),
        ("ekta", {"num_files": 5}, 2),
        ("ekta", {"num_files": 3, "mobile_downloaders": 6}, 7),
    ],
)
def test_trials_equal_the_old_baselines(protocol, overrides, seed):
    config = ExperimentConfig.small().with_overrides(**overrides)
    fast = run_protocol_trial(protocol, config, seed)
    with old_baselines():
        reference = run_protocol_trial(protocol, config, seed)
    assert fast.transmissions > 0
    assert fast == reference
