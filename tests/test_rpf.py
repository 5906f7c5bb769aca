"""Unit tests for the RPF data-fetching strategies (Section IV-E)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base_peer import IpSwarmPeer, SwarmDescriptor
from repro.core import Bitmap, EncounterBasedRpf, FetchStrategy, LocalNeighborhoodRpf, make_fetch_strategy
from repro.simulation import Simulator

from oracles import oracle_rarest_missing, oracle_select


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
    # Rarity: packet 3 missing from all three, packet 2 from two, packet 1 from one.
    assert strategy.pick(own) == 3
    assert picks(strategy, own, 3) == [3, 2, 1]


def test_local_rpf_excludes_outstanding_requests():
    strategy = LocalNeighborhoodRpf(random_start=False)
    own = bitmap(4, [])
    strategy.observe_bitmap("p1", bitmap(4, [0]), now=0.0)
    assert picks(strategy, own, 4, exclude=[3, 2]) == [1, 0]


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
    strategy.observe_bitmap("p1", bitmap(4, [0]), now=0.0)
    assert strategy.pick(bitmap(4, [])) == 1  # packet 0 is the common one
    strategy.forget_peer("p1")
    assert strategy.pick(bitmap(4, [])) == 0  # no knowledge left: sequential
    assert strategy.state_size_bytes == 0


@pytest.mark.parametrize("wifi_range", [40.0, 60.0])
def test_local_rpf_remembers_only_current_neighbours(monkeypatch, wifi_range):
    """Local RPF keeps a bitmap only while its sender is in the neighbour table.

    Checked after every call that changes either side (a bitmap recorded, a
    neighbour forgotten) and at each housekeeping pass, over a whole DAPES
    trial: so when an encounter ends, local RPF already holds nothing.
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
    run_protocol_trial("dapes", config, seed=42)
    assert checks["calls"] > 0 and checks["encounters_over"] > 0


def test_encounter_rpf_keeps_history_across_encounters():
    strategy = EncounterBasedRpf(history=10, random_start=False)
    strategy.observe_bitmap("p1", bitmap(4, [0]), now=0.0)
    strategy.forget_peer("p1")
    assert strategy.pick(bitmap(4, [])) == 1  # history survives disconnection
    assert strategy.state_size_bytes == 1


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
    strategy.observe_bitmap("p1", bitmap(4, [0]), now=0.0)
    strategy.observe_bitmap("p1", bitmap(4, [0, 1, 2]), now=1.0)
    assert strategy.state_size_bytes == 1  # one entry
    assert picks(strategy, bitmap(4, []), 4) == [3, 0, 1, 2]  # the newer bitmap counts


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
    assert picks(strategy, own, 3) == [2, 1, 0]


def test_encounter_rpf_validates_history():
    with pytest.raises(ValueError):
        EncounterBasedRpf(history=0)


def test_encounter_rpf_state_size_grows_with_history():
    strategy = EncounterBasedRpf(history=10)
    strategy.observe_bitmap("p1", bitmap(800, []), now=0.0)
    strategy.observe_bitmap("p2", bitmap(800, []), now=0.0)
    assert strategy.state_size_bytes == 2 * 100


# ------------------------------------------------ pick == the old select(…, 1)
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
def crowds(draw):
    """Distinct peers in a random order, often all of them."""
    count = draw(st.one_of(st.integers(min_value=0, max_value=len(PEERS)), st.just(len(PEERS))))
    return draw(st.permutations(PEERS))[:count]


@st.composite
def fetch_histories(draw):
    """A strategy's construction and a random run of the calls a peer makes on it.

    Up to 300 packets (multi-digit ints, sizes not a multiple of 8) and up
    to 24 peers against a history of up to 21, so the rarity count reaches
    five bit-planes and the encounter history trims.
    """
    size = draw(st.integers(min_value=1, max_value=300))
    operations = [("observe", peer, draw(known_bitmaps(size))) for peer in draw(crowds())]
    for kind in draw(st.lists(st.sampled_from(["observe", "forget", "pick"]), max_size=30)):
        if kind == "observe":
            operations.append((kind, draw(st.sampled_from(PEERS)), draw(known_bitmaps(size))))
        elif kind == "forget":
            operations.append((kind, draw(st.sampled_from(PEERS))))
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


@settings(max_examples=300, deadline=None)
@given(fetch_histories())
def test_pick_is_the_old_select_of_one(case):
    size = case["size"]
    production, reference = _strategy(case), _strategy(case)
    for operation in case["operations"] + [("pick", set(), set())]:
        kind = operation[0]
        if kind == "observe":
            for strategy in (production, reference):
                strategy.observe_bitmap(operation[1], operation[2], now=0.0)
        elif kind == "forget":
            production.forget_peer(operation[1])
            reference.forget_peer(operation[1])
        else:
            own, outstanding = bitmap(size, operation[1]), dict.fromkeys(operation[2], 0)
            expected = oracle_select(reference, own, 1, exclude=outstanding.keys())
            assert production.pick(own, outstanding) == (expected[0] if expected else None)
            # The start offset is drawn at the same moment (never when nothing is missing).
            assert production._rng.getstate() == reference._rng.getstate()


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_bithoc_pick_is_the_old_rarest_missing(size, data):
    peer = IpSwarmPeer(Simulator(), "a", SwarmDescriptor("coll", total_pieces=size, piece_size=512))
    for index in data.draw(index_sets(size)):
        peer.bitmap.set(index)
    neighbours = {name: data.draw(known_bitmaps(size)) for name in data.draw(crowds())}
    exclude = data.draw(index_sets(size))
    assert peer.rarest_missing(neighbours, exclude) == oracle_rarest_missing(peer.bitmap, neighbours, exclude)
