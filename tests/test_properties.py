"""Property-based tests (hypothesis) for the core data structures and invariants."""

import json
import random
import string

from hypothesis import given, settings, strategies as st

from repro.core import Bitmap, DapesNamespace
from repro.core.metadata import build_metadata
from repro.core.peba import PebaScheduler, peba_average_delay
from repro.crypto import MerkleTree
from repro.experiments.metrics import percentile
from repro.ndn import Name
from repro.mobility import CompositeMobility, RandomDirectionMobility, StaticPlacement
from repro.wireless.spatial import GridNeighborIndex

from oracles import BruteForceNeighborIndex

name_components = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits + "-_.", min_size=1, max_size=12),
    min_size=0,
    max_size=6,
)


# ----------------------------------------------------------------------- names
@given(name_components)
def test_name_string_roundtrip(components):
    name = Name(components)
    assert Name(str(name)) == name
    assert len(name) == len(components)


@given(name_components, name_components)
def test_name_prefix_relation(components, extra):
    base = Name(components)
    longer = base.append(*extra) if extra else base
    assert base.is_prefix_of(longer)
    if extra:
        assert len(longer) == len(base) + len(Name(extra))


@given(name_components)
def test_name_prefix_of_itself_and_parent(components):
    name = Name(components)
    for length in range(len(name) + 1):
        assert name.prefix(length).is_prefix_of(name)


# --------------------------------------------------------------------- bitmaps
@given(st.integers(min_value=0, max_value=300), st.data())
def test_bitmap_roundtrip_and_counts(size, data):
    ones = data.draw(st.sets(st.integers(min_value=0, max_value=max(size - 1, 0)), max_size=size)) if size else set()
    bitmap = Bitmap(size, set_bits=ones)
    assert bitmap.count() == len(ones)
    assert bitmap.count() + bitmap.missing_count() == size
    assert Bitmap.from_bytes(size, bitmap.to_bytes()) == bitmap
    assert {index for index in range(size) if bitmap.get(index)} == ones
    assert {index for index in range(size) if bitmap.missing_mask() >> index & 1} == set(range(size)) - ones


@given(st.integers(min_value=1, max_value=128), st.data())
def test_bitmap_set_algebra_laws(size, data):
    ones_a = data.draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    ones_b = data.draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    a, b = Bitmap(size, ones_a), Bitmap(size, ones_b)
    everything = set(range(size))
    assert {index for index in everything if a.union(b).get(index)} == ones_a | ones_b
    assert {index for index in everything if a.difference(b).get(index)} == ones_a - ones_b
    # The union is never smaller than either operand.
    assert a.union(b).count() >= max(a.count(), b.count())


# ---------------------------------------------------------------------- merkle
@given(st.lists(st.binary(min_size=1, max_size=16), min_size=2, max_size=16), st.data())
@settings(max_examples=50)
def test_merkle_root_detects_any_single_leaf_change(leaves, data):
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    mutated = list(leaves)
    mutated[index] = mutated[index] + b"x"
    assert MerkleTree.root_of(leaves) != MerkleTree.root_of(mutated)


# -------------------------------------------------------------------- metadata
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=0, max_value=10 ** 6),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(["digest", "merkle"]),
)
@settings(max_examples=40)
def test_metadata_index_mapping_is_a_bijection(file_specs, metadata_format):
    file_packets = []
    for file_index, (packet_count, salt) in enumerate(file_specs):
        packets = [f"{salt}-{file_index}-{i}".encode() for i in range(packet_count)]
        file_packets.append((f"file-{file_index}", packets))
    metadata = build_metadata("coll", file_packets, metadata_format, "/p", 1024)
    assert metadata.total_packets == sum(count for count, _ in file_specs)
    seen_names = set()
    for index in range(metadata.total_packets):
        name = metadata.packet_name(index)
        assert name not in seen_names
        seen_names.add(name)
        assert metadata.packet_index_of(name) == index
        file_name, sequence = metadata.locate(index)
        assert metadata.global_index(file_name, sequence) == index
    # Round trip through the wire encoding preserves the mapping.
    decoded = type(metadata).decode(metadata.encode())
    assert decoded.total_packets == metadata.total_packets
    assert decoded.packet_name(0) == metadata.packet_name(0)


# ------------------------------------------------------------------- namespace
@given(
    st.text(alphabet=string.ascii_lowercase + "-", min_size=1, max_size=16).filter(lambda s: s.strip("-")),
    st.integers(min_value=0, max_value=2 ** 31),
    st.text(alphabet=string.ascii_lowercase + "-", min_size=1, max_size=16),
    st.integers(min_value=0, max_value=10_000),
)
def test_packet_name_parse_roundtrip(label, timestamp, file_name, sequence):
    collection = DapesNamespace.collection_name(label, timestamp)
    name = DapesNamespace.packet_name(collection, file_name, sequence)
    parsed = DapesNamespace.parse_packet_name(name)
    assert parsed is not None
    assert parsed.collection == collection[0]
    assert parsed.file_name == file_name
    assert parsed.sequence == sequence
    assert DapesNamespace.classify(name) == "collection-data"


# ------------------------------------------------------------------------ PEBA
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100)
def test_peba_delays_are_bounded(useful, missing, collisions):
    scheduler = PebaScheduler(transmission_window=0.020, slot_duration=0.004,
                              initial_slots=2, max_slots=64)
    for _ in range(collisions):
        scheduler.record_collision()
    decision = scheduler.schedule(useful, missing)
    assert decision.delay >= 0.0
    if decision.used_backoff:
        assert decision.slot is not None and 0 <= decision.slot < 64
        assert decision.delay <= 64 * 0.004
    else:
        assert decision.delay <= 0.020 / 1e-2 + 1e-9


@given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=8))
def test_peba_average_delay_non_negative_and_monotone_in_slots(slots, groups):
    tau = 0.004
    delay = peba_average_delay(slots, groups, tau)
    assert delay >= 0.0
    assert peba_average_delay(slots * 2, groups, tau) >= delay


# ------------------------------------------------------------------ percentile
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_bounded_by_min_and_max(values, q):
    result = percentile(values, q)
    assert min(values) - 1e-9 <= result <= max(values) + 1e-9


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_percentile_extremes(values):
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


# -------------------------------------------------- neighbour-set reuse
# One history of queries, time steps (forwards, none, backwards), teleports
# and radio churn is played to the memoryless brute-force oracle and to the
# grid at once; remembered sets must never show through.
_SIDE = 120.0
_STEPS = (0.0, 0.0, 1e-4, 0.002, 0.03, 0.2, 1.5, 20.0, -0.001, -0.5, -30.0)
_spot = st.floats(min_value=0.0, max_value=_SIDE, allow_nan=False)
_history = st.lists(
    st.one_of(
        # Listed twice so that about half of a history's entries are queries.
        st.tuples(st.just("ask"), st.integers(0, 7), st.sampled_from((35.0, 60.0))),
        st.tuples(st.just("ask"), st.integers(0, 7), st.sampled_from((35.0, 60.0))),
        st.tuples(st.just("step"), st.sampled_from(_STEPS), st.none()),
        st.tuples(st.just("teleport"), st.integers(0, 3), st.tuples(_spot, _spot)),
        st.tuples(st.just("toggle"), st.integers(0, 7), st.none()),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), pinned=st.lists(st.tuples(_spot, _spot), min_size=4, max_size=4),
       history=_history)
def test_grid_flavours_match_brute_force_through_any_history(seed, pinned, history):
    nodes = [f"n{i}" for i in range(8)]
    static = StaticPlacement(dict(zip(nodes[:4], pinned)))
    walkers = RandomDirectionMobility(
        width=_SIDE, height=_SIDE, min_speed=1.0, max_speed=15.0, epoch_duration=5.0,
        rng=random.Random(seed),
    )
    mobility = CompositeMobility()
    for node_id in nodes[:4]:
        mobility.assign(node_id, static)
    for node_id in nodes[4:]:
        walkers.add_node(node_id)
        mobility.assign(node_id, walkers)
    brute = BruteForceNeighborIndex(mobility)
    grid = GridNeighborIndex(mobility, 40.0, rebuild_interval=1.0)
    attached = set(nodes)
    for index in (brute, grid):
        for node_id in nodes:
            index.attach(node_id)
    now = 50.0
    for action, first, second in history:
        if action == "step":
            now += first
        elif action == "teleport":
            static.place(nodes[first], *second)
        elif action == "toggle":
            node_id = nodes[first]
            for index in (brute, grid):
                (index.detach if node_id in attached else index.attach)(node_id)
            attached ^= {node_id}
        elif nodes[first] in attached:
            assert grid.neighbors(nodes[first], second, now) == brute.neighbors(
                nodes[first], second, now
            )
