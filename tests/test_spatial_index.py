"""Equivalence tests for the spatial neighbor index.

The grid index must return *exactly* the neighbor sets (and ordering) of the
brute-force reference scan (the oracle in ``oracles.py``) — first
property-style over random placements, ranges and timestamps, then end to
end: a fixed-seed trial must produce an identical :class:`RunResult` with
either index behind the medium.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentConfig, run_protocol_trial
from repro.mobility import (
    CompositeMobility,
    RandomDirectionMobility,
    RandomWaypointMobility,
    ScriptedMobility,
    StaticPlacement,
)
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio, WirelessMedium
from repro.wireless.spatial import GridNeighborIndex, build_neighbor_index

from oracles import BruteForceNeighborIndex, oracle

AREA = 200.0

coords = st.tuples(
    st.floats(min_value=-50.0, max_value=AREA + 50.0, allow_nan=False),
    st.floats(min_value=-50.0, max_value=AREA + 50.0, allow_nan=False),
)


def build_mobility(static_coords, mobile_count, seed):
    """A mixed world: pinned nodes plus random-direction walkers."""
    mobility = CompositeMobility()
    static = StaticPlacement()
    node_ids = []
    for index, (x, y) in enumerate(static_coords):
        node_id = f"s{index}"
        static.place(node_id, x, y)
        mobility.assign(node_id, static)
        node_ids.append(node_id)
    walkers = RandomDirectionMobility(
        width=AREA, height=AREA, min_speed=1.0, max_speed=12.0, rng=random.Random(seed)
    )
    for index in range(mobile_count):
        node_id = f"m{index}"
        walkers.add_node(node_id)
        mobility.assign(node_id, walkers)
        node_ids.append(node_id)
    return mobility, node_ids


@settings(max_examples=60, deadline=None)
@given(
    static_coords=st.lists(coords, min_size=0, max_size=8),
    mobile_count=st.integers(min_value=0, max_value=10),
    radius=st.floats(min_value=1.0, max_value=150.0, allow_nan=False),
    cell_size=st.floats(min_value=5.0, max_value=120.0, allow_nan=False),
    rebuild_interval=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
    times=st.lists(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False), min_size=1, max_size=8
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_grid_matches_brute_force_for_random_worlds(
    static_coords, mobile_count, radius, cell_size, rebuild_interval, times, seed
):
    mobility, node_ids = build_mobility(static_coords, mobile_count, seed)
    brute = BruteForceNeighborIndex(mobility)
    grid = GridNeighborIndex(mobility, cell_size=cell_size, rebuild_interval=rebuild_interval)
    for node_id in node_ids:
        brute.attach(node_id)
        grid.attach(node_id)
    # Times arrive in the given (possibly non-monotonic) order, as the medium
    # may query the past; every node is probed at every timestamp.
    for when in times:
        for node_id in node_ids:
            expected = brute.neighbors(node_id, radius, when)
            assert grid.neighbors(node_id, radius, when) == expected


def test_grid_tracks_attach_and_detach():
    mobility = StaticPlacement({"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (20.0, 0.0)})
    grid = GridNeighborIndex(mobility, cell_size=25.0)
    for node_id in ("a", "b", "c"):
        grid.attach(node_id)
    assert grid.neighbors("a", 30.0, 0.0) == ["b", "c"]
    grid.detach("b")
    assert grid.neighbors("a", 30.0, 0.0) == ["c"]
    grid.attach("b")
    # Re-attached nodes go to the back of the ordering, like a fresh radio.
    assert grid.neighbors("a", 30.0, 0.0) == ["c", "b"]


def test_grid_reuses_snapshots_within_the_rebuild_window():
    walkers = RandomDirectionMobility(
        width=AREA, height=AREA, min_speed=1.0, max_speed=12.0, rng=random.Random(3)
    )
    for index in range(6):
        walkers.add_node(f"n{index}")
    brute = BruteForceNeighborIndex(walkers)
    grid = GridNeighborIndex(walkers, cell_size=60.0, rebuild_interval=1.0)
    for node_id in walkers.node_ids:
        brute.attach(node_id)
        grid.attach(node_id)
    # Different nodes ask, so every query scans: one snapshot serves the
    # whole window, the first query beyond it takes the next one.
    for node_id, when in (("n0", 0.0), ("n1", 0.5), ("n2", 0.9)):
        assert grid.neighbors(node_id, 60.0, when) == brute.neighbors(node_id, 60.0, when)
    assert grid.rebuilds == 1
    assert grid.neighbors("n3", 60.0, 5.0) == brute.neighbors("n3", 60.0, 5.0)
    assert grid.rebuilds == 2


def test_static_world_never_needs_a_second_snapshot():
    mobility = StaticPlacement({f"n{i}": (float(i), 0.0) for i in range(6)})
    grid = GridNeighborIndex(mobility, cell_size=10.0, rebuild_interval=1.0)
    for node_id in mobility.node_ids:
        grid.attach(node_id)
    for when in (0.0, 0.5, 0.9, 5.0, 500.0):
        assert grid.neighbors("n0", 3.5, when) == ["n1", "n2", "n3"]
    assert (grid.rebuilds, grid.reuse_misses, grid.reuse_hits) == (1, 1, 4)
    # ...until a teleport moves the mobility version.
    mobility.place("n1", 50.0, 0.0)
    assert grid.neighbors("n0", 3.5, 500.0) == ["n2", "n3"]
    assert grid.rebuilds == 2


# --------------------------------------------------------------- set reuse
# The grid remembers a node's last answer until a horizon; these tests walk
# every way that memory could go stale and require the answer of the
# memoryless brute-force oracle at *every* query.
def _random_direction(seed, nodes):
    model = RandomDirectionMobility(
        width=AREA, height=AREA, min_speed=1.0, max_speed=12.0, rng=random.Random(seed)
    )
    for node_id in nodes:
        model.add_node(node_id)
    return model


def _random_waypoint(seed, nodes):
    model = RandomWaypointMobility(
        width=AREA, height=AREA, min_speed=1.0, max_speed=12.0, pause_time=2.0,
        rng=random.Random(seed),
    )
    for node_id in nodes:
        model.add_node(node_id)
    return model


def _scripted(seed, nodes):
    rng = random.Random(seed)
    model = ScriptedMobility()
    for node_id in nodes:
        when, trace = 0.0, []
        while when < 150.0:
            trace.append((when, rng.uniform(0.0, AREA), rng.uniform(0.0, AREA)))
            when += rng.uniform(4.0, 15.0)
        model.add_node(node_id, trace)
    return model


def _static(seed, nodes):
    rng = random.Random(seed)
    return StaticPlacement(
        {node_id: (rng.uniform(0.0, AREA), rng.uniform(0.0, AREA)) for node_id in nodes}
    )


def _compose(*models):
    mobility = CompositeMobility()
    for model in models:
        for node_id in model.node_ids:
            mobility.assign(node_id, model)
    return mobility


def _composite(seed, nodes):
    half = len(nodes) // 2
    return _compose(_static(seed, nodes[:half]), _random_direction(seed, nodes[half:]))


WORLDS = {
    "random_direction": _random_direction,
    "random_waypoint": _random_waypoint,
    "scripted": _scripted,
    "static": _static,
    "composite": _composite,
}

# name -> index under test against the brute oracle; the name is part of
# each test id.
INDEXES = {
    "scalar": lambda mobility: GridNeighborIndex(mobility, 45.0, rebuild_interval=1.0),
}


NODES = [f"n{i}" for i in range(12)]


def oracle_and_index(mobility, index, nodes=NODES):
    """``(brute oracle, index under test)`` over ``mobility``, nodes attached."""
    brute = BruteForceNeighborIndex(mobility)
    tested = INDEXES[index](mobility)
    for node_id in nodes:
        brute.attach(node_id)
        tested.attach(node_id)
    return brute, tested


def reuse_world(world, index, seed=5):
    """``(mobility, node ids, brute oracle, index under test)``, all attached."""
    mobility = WORLDS[world](seed, NODES)
    return (mobility, NODES, *oracle_and_index(mobility, index))


def assert_matches_oracle(tested, brute, nodes, radius, when):
    for node_id in nodes:
        assert tested.neighbors(node_id, radius, when) == brute.neighbors(
            node_id, radius, when
        ), (node_id, radius, when)


# Repeats at one timestamp, steps far inside any horizon (1 m of clearance
# at <= 12 m/s lasts ~40 ms), steps beyond it and beyond the rebuild window,
# and queries that go back in time — before the remembered t0.
HAZARD_TIMES = (
    0.0, 0.0, 0.0005, 0.001, 0.004, 0.02, 0.02, 0.06, 0.3, 0.3, 1.7, 1.7004,
    1.69, 1.7004, 9.0, 9.0001, 3.0, 9.0001, 60.0, 60.002, 59.999, 140.0,
)


@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_remembered_sets_match_the_oracle_at_every_query(world, index):
    mobility, nodes, brute, tested = reuse_world(world, index)
    for when in HAZARD_TIMES:
        assert_matches_oracle(tested, brute, nodes, 60.0, when)
    # The schedule must actually have been answered from memory in part.
    assert tested.reuse_hits > 0 and tested.reuse_misses > 0


@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_one_node_asking_with_two_radii_never_gets_the_other_answer(world, index):
    # A per-radio wifi_range override makes one node query with its own
    # radius for transmissions while another layer may ask at a second one.
    mobility, nodes, brute, tested = reuse_world(world, index)
    for when in (0.0, 0.001, 0.001, 0.5, 0.5005):
        for radius in (40.0, 75.0, 40.0):
            assert_matches_oracle(tested, brute, nodes, radius, when)


@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("composite", [False, True])
def test_teleport_between_two_queries_at_one_timestamp(composite, index):
    nodes = NODES
    static = mobility = _static(5, nodes[:6] if composite else nodes)
    if composite:
        mobility = _compose(static, _random_direction(5, nodes[6:]))
    brute, tested = oracle_and_index(mobility, index)
    assert_matches_oracle(tested, brute, nodes, 60.0, 2.0)
    x, y = mobility.position_xy("n3", 2.0)
    static.place("n0", x + 1.0, y)  # lands next to n3...
    assert_matches_oracle(tested, brute, nodes, 60.0, 2.0)
    assert "n0" in tested.neighbors("n3", 60.0, 2.0)
    static.place("n0", x + 1000.0, y)  # ...and leaves again, same timestamp
    assert_matches_oracle(tested, brute, nodes, 60.0, 2.0)
    assert tested.neighbors("n0", 60.0, 2.0) == []


@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_attach_and_detach_between_queries(world, index):
    mobility, nodes, brute, tested = reuse_world(world, index)
    attached = list(nodes)
    for step, when in enumerate((1.0, 1.0, 1.002, 1.004, 1.004, 4.0, 4.001)):
        assert_matches_oracle(tested, brute, attached, 80.0, when)
        leaver = nodes[step % len(nodes)]
        for each in (brute, tested):
            each.detach(leaver)
        attached.remove(leaver)
        assert_matches_oracle(tested, brute, attached, 80.0, when)
        for each in (brute, tested):
            each.attach(leaver)
        attached.append(leaver)  # back of the attach order, like a fresh radio
        assert_matches_oracle(tested, brute, attached, 80.0, when)


class UnboundedSpeed(RandomDirectionMobility):
    """A model that cannot promise a speed bound."""

    def speed_bound(self):
        return math.inf


@pytest.mark.parametrize("index", sorted(INDEXES))
def test_unbounded_speed_reuses_within_one_timestamp_only(index):
    nodes = NODES[:8]
    mobility = UnboundedSpeed(width=AREA, height=AREA, rng=random.Random(2))
    for node_id in nodes:
        mobility.add_node(node_id)
    brute, tested = oracle_and_index(mobility, index, nodes)
    distinct = (0.0, 1e-6, 0.001, 0.5, 0.5 + 1e-9, 7.0)
    for when in distinct:
        assert_matches_oracle(tested, brute, nodes, 60.0, when)
    assert tested.reuse_hits == 0
    revisited = distinct[-2::-1]
    for when in revisited:
        for _ in range(2):
            assert_matches_oracle(tested, brute, nodes, 60.0, when)
    # Only the second probe of each timestamp can have been a reuse.
    assert tested.reuse_hits == len(revisited) * len(nodes)


@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("offset", [-5e-10, 0.0, 5e-10])
def test_a_pair_within_a_nanometre_of_the_range_circle(index, offset):
    # "edge" crosses hub's range circle at 1 m/s around t = 10 s; "near" and
    # "far" sit still a hair inside and outside it.  No clearance to speak
    # of, so nothing may be remembered beyond the timestamp it was seen at.
    radius = 60.0
    mobility = ScriptedMobility()
    mobility.add_node("hub", [(0.0, 100.0, 100.0)])
    mobility.add_node("edge", [(0.0, 150.0 + offset, 100.0), (20.0, 170.0 + offset, 100.0)])
    mobility.add_node("near", [(0.0, 100.0, 100.0 + radius - 5e-10)])
    mobility.add_node("far", [(0.0, 100.0, 100.0 - radius - 5e-10)])
    nodes = ["hub", "edge", "near", "far"]
    brute, tested = oracle_and_index(mobility, index, nodes)
    crossed = set()
    for step in range(-40, 41):
        when = 10.0 + step * 2.5e-10
        for _ in range(2):
            assert_matches_oracle(tested, brute, nodes, radius, when)
        crossed.add("edge" in tested.neighbors("hub", radius, when))
    assert crossed == {True, False}


@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("gap", [5.0, 1.01, 0.9, 0.5, 0.1, 0.01])
@pytest.mark.parametrize("closing", [True, False])
def test_the_horizon_ends_before_a_pair_at_full_speed_can_cross(index, gap, closing):
    # The worst case the horizon is built for: sender and candidate both at
    # the speed bound, heading straight at (or away from) each other, the
    # candidate ``gap`` metres off the range circle when the set is taken.
    # The very next query comes a micrometre after the crossing.
    radius, speed, t0 = 60.0, 10.0, 3.0
    start = radius + gap if closing else radius - gap
    towards = speed if closing else -speed  # hub's velocity; edge has the opposite
    mobility = ScriptedMobility()
    mobility.add_node("hub", [(0.0, 100.0, 50.0), (10.0, 100.0 + towards * 10.0, 50.0)])
    first = 100.0 + start + 2.0 * towards * t0  # so that edge - hub == start at t0
    mobility.add_node("edge", [(0.0, first, 50.0), (10.0, first - towards * 10.0, 50.0)])
    assert mobility.speed_bound() == pytest.approx(speed)
    brute, tested = oracle_and_index(mobility, index, ["hub", "edge"])
    crossing = t0 + gap / (2.0 * speed)
    for when in (t0, t0, crossing + 1e-6 / (2.0 * speed), crossing + 0.2):
        assert_matches_oracle(tested, brute, ["hub", "edge"], radius, when)
    assert tested.neighbors("hub", radius, t0) == ([] if closing else ["edge"])
    assert tested.neighbors("hub", radius, crossing + 0.2) == (["edge"] if closing else [])
    # Half-way to the crossing the remembered set is still good, and used.
    hits = tested.reuse_hits
    early = t0 + min(gap, 1.0) / (4.0 * speed)
    assert_matches_oracle(tested, brute, ["hub", "edge"], radius, t0)
    assert_matches_oracle(tested, brute, ["hub", "edge"], radius, early)
    assert tested.reuse_hits > hits


def test_neighbor_lists_belong_to_the_caller():
    mobility = StaticPlacement({"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (20.0, 0.0)})
    sim = Simulator(seed=1)
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    radios = {node_id: Radio(sim, medium, node_id) for node_id in ("a", "b", "c")}
    heard = []
    for node_id in ("b", "c"):
        radios[node_id].on_receive = lambda frame, node_id=node_id: heard.append(node_id)
    first = medium.neighbours_of("a")
    assert first == ["b", "c"]
    first.reverse()
    first.pop()
    first.append("intruder")
    assert medium.neighbours_of("a") == ["b", "c"]
    raw = medium._index.neighbors("a", 60.0, 0.0)
    raw.clear()
    assert medium._index.neighbors("a", 60.0, 0.0) == ["b", "c"]
    radios["a"].broadcast("hello", 100, kind="test")
    sim.run()
    assert heard == ["b", "c"]


def test_build_neighbor_index_respects_channel_config():
    mobility = StaticPlacement({"a": (0.0, 0.0)})
    grid = build_neighbor_index(
        ChannelConfig(index_cell_size=12.5, index_rebuild_interval=2.0), mobility
    )
    assert isinstance(grid, GridNeighborIndex)
    assert (grid.cell_size, grid.rebuild_interval) == (12.5, 2.0)
    # Cell size defaults to the WiFi range.
    default = build_neighbor_index(ChannelConfig(wifi_range=42.0), mobility)
    assert default.cell_size == 42.0


def test_medium_neighbours_identical_across_backends_with_mobility():
    def neighbour_table(backend):
        sim = Simulator(seed=99)
        mobility = CompositeMobility()
        walkers = RandomDirectionMobility(
            width=150.0, height=150.0, min_speed=2.0, max_speed=10.0, rng=sim.rng("mobility")
        )
        for index in range(12):
            walkers.add_node(f"n{index}")
            mobility.assign(f"n{index}", walkers)
        with oracle(index=backend):
            medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=50.0, loss_rate=0.0))
        for index in range(12):
            Radio(sim, medium, f"n{index}")
        return {
            (node, when): tuple(medium.neighbours_of(node, time=when))
            for when in (0.0, 1.5, 30.0, 29.0, 120.0)
            for node in medium.node_ids
        }

    assert neighbour_table("grid") == neighbour_table("brute")


@pytest.mark.parametrize("protocol", ["dapes", "bithoc"])
def test_fixed_seed_run_result_identical_under_both_backends(protocol):
    results = {}
    for backend in ("grid", "brute"):
        with oracle(index=backend):
            results[backend] = run_protocol_trial(protocol, ExperimentConfig.small(), seed=42)
    assert results["grid"] == results["brute"]
    assert results["grid"].transmissions > 0
