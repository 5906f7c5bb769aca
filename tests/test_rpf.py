"""Unit tests for the RPF data-fetching strategies (Section IV-E)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base_peer import IpSwarmPeer, SwarmDescriptor
from repro.core import Bitmap, EncounterBasedRpf, FetchStrategy, LocalNeighborhoodRpf, make_fetch_strategy
from repro.simulation import Simulator

from oracles import oracle_missing, oracle_pick, oracle_presence_counts, oracle_rarest_missing, oracle_select


def bitmap(size, ones):
    return Bitmap(size, set_bits=ones)


def picks(strategy, own, count, exclude=()):
    """Up to ``count`` successive picks, each excluded from the next (a growing pipeline)."""
    outstanding = dict.fromkeys(exclude, 0)
    result = []
    while len(result) < count:
        index = strategy.pick(own, outstanding)
        if index is None:
            break
        result.append(index)
        outstanding[index] = 0
    return result


def test_factory_dispatch():
    assert isinstance(make_fetch_strategy("local"), LocalNeighborhoodRpf)
    assert isinstance(make_fetch_strategy("encounter"), EncounterBasedRpf)
    with pytest.raises(ValueError):
        make_fetch_strategy("unknown")


def test_fetch_strategy_has_no_abstract_methods():
    assert not getattr(FetchStrategy, "__abstractmethods__", None)
    assert FetchStrategy(random_start=False).pick(bitmap(3, [0]), ()) == 1


def test_local_rpf_prioritizes_rarest_packet():
    strategy = LocalNeighborhoodRpf(random_start=False)
    own = bitmap(4, [])
    strategy.observe_bitmap("p1", bitmap(4, [0, 1, 2]), now=0.0)
    strategy.observe_bitmap("p2", bitmap(4, [0, 1]), now=0.0)
    strategy.observe_bitmap("p3", bitmap(4, [0]), now=0.0)
    # Holders: packet 0 has three, packet 1 two, packet 2 one, packet 3 none,
    # so packet 2 is the rarest one a neighbour can send and packet 3 comes last.
    assert strategy.pick(own) == 2
    assert picks(strategy, own, 4) == [2, 1, 0, 3]


def test_pick_prefers_a_held_packet_over_an_unadvertised_one():
    strategy = LocalNeighborhoodRpf(random_start=False)
    strategy.observe_bitmap("p1", bitmap(4, [2]), now=0.0)
    strategy.observe_bitmap("p2", bitmap(4, [2, 3]), now=0.0)
    # Packets 0 and 1 are missing everywhere, yet the picks go to 3 (one
    # holder) and 2 (two holders) first.
    assert picks(strategy, bitmap(4, []), 4) == [3, 2, 0, 1]


@pytest.mark.parametrize("random_start", [False, True])
def test_pick_falls_back_to_rotated_order_when_no_known_peer_holds_a_missing_packet(random_start):
    strategy = EncounterBasedRpf(random_start=random_start, rng=random.Random(5))
    own = bitmap(40, range(10))
    strategy.observe_bitmap("p1", bitmap(40, range(10)), now=0.0)
    strategy.observe_bitmap("p2", bitmap(40, [3]), now=0.0)
    # No known peer holds a missing packet: the peer still requests, in
    # sequence order from its start packet, skipping what it holds.
    chosen = picks(strategy, own, 30)
    start = strategy._start(40)
    expected = [index for index in sorted(range(40), key=lambda index: (index - start) % 40) if index >= 10]
    assert chosen == expected
    assert (start != 0) == random_start


def test_local_rpf_excludes_outstanding_requests():
    strategy = LocalNeighborhoodRpf(random_start=False)
    own = bitmap(4, [])
    strategy.observe_bitmap("p1", bitmap(4, [0, 2]), now=0.0)
    # Packet 2 is outstanding, so the held packet 0 goes first, then the rest in order.
    assert picks(strategy, own, 4, exclude=[3, 2]) == [0, 1]


def test_local_rpf_without_knowledge_is_sequential_from_start():
    strategy = LocalNeighborhoodRpf(random_start=False)
    own = bitmap(5, [0])
    assert picks(strategy, own, 10) == [1, 2, 3, 4]


def test_local_rpf_random_start_rotates_order():
    strategy = LocalNeighborhoodRpf(random_start=True, rng=random.Random(3))
    own = bitmap(50, [])
    chosen = picks(strategy, own, 5)
    assert chosen[0] != 0  # with this seed the start offset is non-zero
    # consecutive from the offset, wrapping around
    offsets = [(pick - chosen[0]) % 50 for pick in chosen]
    assert offsets == [0, 1, 2, 3, 4]


def test_local_rpf_pick_none_when_nothing_to_request():
    strategy = LocalNeighborhoodRpf()
    assert strategy.pick(Bitmap.full(4)) is None
    assert strategy.pick(bitmap(4, [0, 1]), {2: 0, 3: 0}) is None


def test_local_rpf_forgets_departed_peer():
    strategy = LocalNeighborhoodRpf(random_start=False)
    strategy.observe_bitmap("p1", bitmap(4, [2]), now=0.0)
    assert strategy.pick(bitmap(4, [])) == 2  # the one packet p1 can send
    strategy.forget_peer("p1")
    assert strategy.pick(bitmap(4, [])) == 0  # no knowledge left: sequential
    assert strategy.state_size_bytes == 0


@pytest.mark.parametrize("wifi_range", [40.0, 60.0])
def test_local_rpf_remembers_only_current_neighbours(monkeypatch, wifi_range):
    """Local RPF keeps a bitmap only while its sender is in the neighbour table.

    Checked after every call that changes either side (a bitmap recorded, a
    neighbour forgotten) and at each housekeeping pass, over a whole DAPES
    trial: so when an encounter ends, local RPF already holds nothing.  Each
    range runs a seed whose trial leaves some peer with no neighbour before
    the downloads finish (at 60 m, seed 42's finish within 40 s, before any
    peer is left alone).
    """
    from repro.core.advertisement import Advertising
    from repro.core.peer import DapesPeer, Discovery
    from repro.experiments import ExperimentConfig, run_protocol_trial

    checks = {"calls": 0, "encounters_over": 0}

    def check(peer):
        neighbours = set(peer.discovery.neighbors)
        for session in peer.sessions.values():
            if isinstance(session.fetch, LocalNeighborhoodRpf):
                checks["calls"] += 1
                assert set(session.fetch._bitmaps) <= neighbours, peer.node_id
                if not neighbours:
                    checks["encounters_over"] += 1

    def after(method, owner):
        def wrapper(self, *args):
            result = method(self, *args)
            check(owner(self))
            return result
        return wrapper

    monkeypatch.setattr(Advertising, "record", after(Advertising.record, lambda part: part.peer))
    monkeypatch.setattr(Discovery, "forget", after(Discovery.forget, lambda part: part.peer))
    monkeypatch.setattr(DapesPeer, "_housekeeping", after(DapesPeer._housekeeping, lambda peer: peer))
    config = ExperimentConfig.small().with_overrides(wifi_range=wifi_range)
    assert config.dapes.rpf_strategy == "local"
    run_protocol_trial("dapes", config, seed={40.0: 42, 60.0: 2}[wifi_range])
    assert checks["calls"] > 0 and checks["encounters_over"] > 0


def test_encounter_rpf_keeps_history_across_encounters():
    strategy = EncounterBasedRpf(history=10, random_start=False)
    strategy.observe_bitmap("p1", bitmap(4, [1]), now=0.0)
    strategy.forget_peer("p1")
    assert strategy.state_size_bytes == 1
    strategy.observe_bitmap("p2", bitmap(4, [1, 2]), now=1.0)
    # History survives disconnection: p1 still counts as a holder of packet
    # 1, so packet 2 is the rarer one.
    assert strategy.pick(bitmap(4, [])) == 2


def test_encounter_rpf_ranks_only_what_a_peer_in_range_holds():
    strategy = EncounterBasedRpf(history=10, random_start=False)
    strategy.observe_bitmap("p1", bitmap(4, [0, 1]), now=0.0)
    strategy.forget_peer("p1")
    strategy.observe_bitmap("p2", bitmap(4, [1, 2]), now=1.0)
    # Packets 0 and 2 have one holder each in the history, but only p2 is in
    # range: packet 2 first, then packet 1, then the rest in sequence order.
    assert picks(strategy, bitmap(4, []), 4) == [2, 1, 0, 3]
    strategy.forget_peer("p2")
    assert picks(strategy, bitmap(4, []), 4) == [0, 1, 2, 3]  # nobody in range


def test_encounter_rpf_history_is_bounded():
    strategy = EncounterBasedRpf(history=3, random_start=False)
    for index in range(6):
        # Peer p<i> lacks only packet i.
        strategy.observe_bitmap(f"p{index}", bitmap(6, set(range(6)) - {index}), now=float(index))
    assert strategy.state_size_bytes == 3 * bitmap(6, []).wire_size
    # Only p3, p4 and p5 are remembered: their gaps are the rare packets.
    assert picks(strategy, bitmap(6, []), 6) == [3, 4, 5, 0, 1, 2]


def test_encounter_rpf_repeat_encounter_updates_bitmap():
    strategy = EncounterBasedRpf(history=5, random_start=False)
    strategy.observe_bitmap("p1", bitmap(4, [3]), now=0.0)
    strategy.observe_bitmap("p1", bitmap(4, [1, 2]), now=1.0)
    assert strategy.state_size_bytes == 1  # one entry
    assert picks(strategy, bitmap(4, []), 4) == [1, 2, 0, 3]  # the newer bitmap counts


def test_encounter_rpf_repeat_encounter_refreshes_recency():
    strategy = EncounterBasedRpf(history=2, random_start=False)
    strategy.observe_bitmap("p1", bitmap(3, [1, 2]), now=0.0)
    strategy.observe_bitmap("p2", bitmap(3, [0, 2]), now=1.0)
    strategy.observe_bitmap("p1", bitmap(3, [1, 2]), now=2.0)
    strategy.observe_bitmap("p3", bitmap(3, [0, 2]), now=3.0)  # evicts p2, not p1
    assert picks(strategy, bitmap(3, []), 3) == [0, 1, 2]


def test_encounter_rpf_rarity_over_history():
    strategy = EncounterBasedRpf(history=5, random_start=False)
    strategy.observe_bitmap("p1", bitmap(3, [0, 1]), now=0.0)
    strategy.observe_bitmap("p2", bitmap(3, [0]), now=1.0)
    own = bitmap(3, [])
    # Packet 1 has one holder, packet 0 two; packet 2, held by nobody, comes last.
    assert picks(strategy, own, 3) == [1, 0, 2]


def test_encounter_rpf_validates_history():
    with pytest.raises(ValueError):
        EncounterBasedRpf(history=0)


def test_encounter_rpf_state_size_grows_with_history():
    strategy = EncounterBasedRpf(history=10)
    strategy.observe_bitmap("p1", bitmap(800, []), now=0.0)
    strategy.observe_bitmap("p2", bitmap(800, []), now=0.0)
    assert strategy.state_size_bytes == 2 * 100


# ----------------------------------------- pick == the list rule, and the old one where they agree
PEERS = [f"p{index}" for index in range(24)]


def _scatter(size, seed, density):
    rng = random.Random(seed)
    return {index for index in range(size) if rng.random() < density}


def index_sets(size):
    """A set of indices below ``size``, each present with one drawn density (0 and 1 included)."""
    densities = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), st.floats(0.0, 1.0))
    return st.builds(_scatter, st.just(size), st.integers(0, 2**32 - 1), densities)


@st.composite
def known_bitmaps(draw, size):
    """A neighbour's advertised bitmap: usually ``size`` packets, sometimes shorter or longer."""
    known_size = draw(st.one_of(st.just(size), st.integers(min_value=1, max_value=size + 20)))
    return bitmap(known_size, draw(index_sets(known_size)))


@st.composite
def crowds(draw, peers=PEERS):
    """Distinct ``peers`` in a random order, often all of them."""
    count = draw(st.one_of(st.integers(min_value=0, max_value=len(peers)), st.just(len(peers))))
    return draw(st.permutations(peers))[:count]


@st.composite
def fetch_histories(draw, peers=PEERS):
    """A strategy's construction and a random run of the calls a peer makes on it.

    Up to 300 packets (multi-digit ints, sizes not a multiple of 8) and up
    to 24 peers against a history of up to 21, so the rarity count reaches
    five bit-planes and the encounter history trims.  With a few ``peers``,
    a packet often has holders only among the peers out of range.
    """
    size = draw(st.integers(min_value=1, max_value=300))
    operations = [("observe", peer, draw(known_bitmaps(size))) for peer in draw(crowds(peers))]
    for kind in draw(st.lists(st.sampled_from(["observe", "forget", "pick"]), max_size=30)):
        if kind == "observe":
            operations.append((kind, draw(st.sampled_from(peers)), draw(known_bitmaps(size))))
        elif kind == "forget":
            operations.append((kind, draw(st.sampled_from(peers))))
        else:
            operations.append((kind, draw(index_sets(size)), draw(index_sets(size))))
    return {
        "size": size,
        "flavour": draw(st.sampled_from(["local", "encounter"])),
        "history": draw(st.one_of(st.integers(min_value=1, max_value=21), st.just(20), st.just(21))),
        "random_start": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "operations": operations,
    }


def _strategy(case):
    rng = random.Random(case["seed"])
    if case["flavour"] == "local":
        return LocalNeighborhoodRpf(random_start=case["random_start"], rng=rng)
    return EncounterBasedRpf(history=case["history"], random_start=case["random_start"], rng=rng)


def _replay(case, check):
    """Run ``case``'s calls on a production and a reference strategy; ``check`` judges each pick.

    ``check`` also gets the peers in range: those observed since they were
    last forgotten.
    """
    size = case["size"]
    production, reference = _strategy(case), _strategy(case)
    in_range = set()
    for operation in case["operations"] + [("pick", set(), set())]:
        kind = operation[0]
        if kind == "observe":
            for strategy in (production, reference):
                strategy.observe_bitmap(operation[1], operation[2], now=0.0)
            in_range.add(operation[1])
        elif kind == "forget":
            production.forget_peer(operation[1])
            reference.forget_peer(operation[1])
            in_range.discard(operation[1])
        else:
            own, outstanding = bitmap(size, operation[1]), dict.fromkeys(operation[2], 0)
            check(production, reference, own, outstanding, in_range)
            # The start offset is drawn at the same moment (never when nothing is missing).
            assert production._rng.getstate() == reference._rng.getstate()


@settings(max_examples=300, deadline=None)
@given(st.one_of(fetch_histories(), fetch_histories(PEERS[:3])))
def test_pick_is_the_list_rule(case):
    def check(production, reference, own, outstanding, in_range):
        expected = oracle_pick(reference, own, outstanding.keys(), in_range)
        assert production.pick(own, outstanding) == expected

    _replay(case, check)


@settings(max_examples=300, deadline=None)
@given(fetch_histories())
def test_pick_is_the_old_select_of_one(case):
    """Where a peer in range holds every candidate, or no kept bitmap holds any, the old rule still decides."""

    def check(production, reference, own, outstanding, in_range):
        expected = oracle_select(reference, own, 1, exclude=outstanding.keys())
        candidates = [index for index in oracle_missing(own) if index not in outstanding]
        kept = reference._bitmaps
        presence = oracle_presence_counts(own.size, kept.values())
        available = oracle_presence_counts(own.size, [kept[peer] for peer in in_range if peer in kept])
        index = production.pick(own, outstanding)
        if all(available[i] for i in candidates) or not any(presence[i] for i in candidates):
            assert index == (expected[0] if expected else None)
        elif any(available[i] for i in candidates):
            assert available[index] > 0

    _replay(case, check)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_bithoc_pick_is_the_old_rarest_missing(size, data):
    peer = IpSwarmPeer(Simulator(), "a", SwarmDescriptor("coll", total_pieces=size, piece_size=512))
    for index in data.draw(index_sets(size)):
        peer.bitmap.set(index)
    neighbours = {name: data.draw(known_bitmaps(size)) for name in data.draw(crowds())}
    exclude = data.draw(index_sets(size))
    ranked = Bitmap.rarest(peer.bitmap.missing_mask(exclude), neighbours.values())
    assert ranked == oracle_rarest_missing(peer.bitmap, neighbours, exclude)
