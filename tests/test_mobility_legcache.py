"""Leg-cached mobility evaluation must be bit-identical to the reference path.

``position_xy`` / ``positions_at`` are the hot-path queries the spatial
index uses; these tests pin them against ``position`` for arbitrary
(including non-monotonic) query orders, and the rows of ``positions_array``
(the NumPy form of ``positions_at`` that the benchmark's probes call)
against ``position_xy``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.arrays as arrays
from repro.arrays import numpy_available
from repro.mobility import (
    CompositeMobility,
    Position,
    RandomDirectionMobility,
    RandomWaypointMobility,
    ScriptedMobility,
    StaticPlacement,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed (scalar-only environment)"
)

AREA = 200.0


def build_models():
    direction = RandomDirectionMobility(rng=random.Random(3))
    waypoint = RandomWaypointMobility(pause_time=1.5, rng=random.Random(4))
    for model in (direction, waypoint):
        for index in range(6):
            model.add_node(f"n{index}")
    return {"direction": direction, "waypoint": waypoint}


@pytest.mark.parametrize("kind", ["direction", "waypoint"])
def test_position_xy_bit_identical_for_random_query_order(kind):
    model = build_models()[kind]
    reference = build_models()[kind]
    rng = random.Random(99)
    times = [rng.uniform(0.0, 400.0) for _ in range(300)]
    for time in times:
        node = f"n{rng.randrange(6)}"
        x, y = model.position_xy(node, time)
        expected = reference.position(node, time)
        assert (x, y) == (expected.x, expected.y)  # bit-identical, not approx


@pytest.mark.parametrize("kind", ["direction", "waypoint"])
def test_positions_at_matches_per_node_position(kind):
    model = build_models()[kind]
    reference = build_models()[kind]
    node_ids = [f"n{index}" for index in range(6)]
    for time in (0.0, 3.7, 120.5, 50.2, 399.9):  # deliberately out of order
        coords = model.positions_at(node_ids, time)
        for node, (x, y) in zip(node_ids, coords):
            expected = reference.position(node, time)
            assert (x, y) == (expected.x, expected.y)


def test_leg_cache_invalidated_when_node_is_reregistered():
    model = RandomDirectionMobility(rng=random.Random(1))
    model.add_node("n0", initial_position=(10.0, 10.0))
    model.position("n0", 50.0)  # populate the leg cache
    version = model.mobility_version()
    model.add_node("n0", initial_position=(200.0, 200.0))
    assert model.mobility_version() > version
    assert model.position("n0", 0.0) == Position(200.0, 200.0)


def test_composite_position_xy_dispatches_and_matches():
    composite = CompositeMobility()
    static = StaticPlacement({"s": (5.0, 6.0)})
    mobile = RandomDirectionMobility(rng=random.Random(2))
    mobile.add_node("m")
    composite.assign("s", static)
    composite.assign("m", mobile)
    assert composite.position_xy("s", 12.0) == (5.0, 6.0)
    expected = composite.position("m", 12.0)
    assert composite.position_xy("m", 12.0) == (expected.x, expected.y)
    coords = composite.positions_at(["s", "m"], 30.0)
    assert coords[0] == (5.0, 6.0)
    expected = composite.position("m", 30.0)
    assert coords[1] == (expected.x, expected.y)
    with pytest.raises(KeyError):
        composite.position_xy("missing", 0.0)


def test_composite_registers_shared_model_once():
    composite = CompositeMobility()
    mobile = RandomDirectionMobility(rng=random.Random(2))
    mobile.add_node("a")
    mobile.add_node("b")
    composite.assign("a", mobile)
    composite.assign("b", mobile)
    assert len(composite._model_list) == 1
    assert composite.speed_bound() == mobile.speed_bound()


# ------------------------------------------------ positions_array bit-identity
def build_mixed_mobility(seed: int):
    """One of every mobility family under a composite, like real scenarios."""
    rng = random.Random(seed)
    mobility = CompositeMobility()
    node_ids = []
    static = StaticPlacement()
    for index in range(3):
        node_id = f"s{index}"
        static.place(node_id, rng.uniform(0, AREA), rng.uniform(0, AREA))
        mobility.assign(node_id, static)
        node_ids.append(node_id)
    walkers = RandomDirectionMobility(
        width=AREA, height=AREA, min_speed=1.0, max_speed=12.0,
        epoch_duration=5.0, rng=random.Random(seed + 1),
    )
    for index in range(4):
        node_id = f"d{index}"
        walkers.add_node(node_id)
        mobility.assign(node_id, walkers)
        node_ids.append(node_id)
    waypointers = RandomWaypointMobility(
        width=AREA, height=AREA, min_speed=1.0, max_speed=9.0,
        pause_time=2.0, rng=random.Random(seed + 2),
    )
    for index in range(4):
        node_id = f"w{index}"
        waypointers.add_node(node_id)
        mobility.assign(node_id, waypointers)
        node_ids.append(node_id)
    scripted = ScriptedMobility()
    scripted.add_node("route", [(0.0, 10.0, 10.0), (8.0, 50.0, 20.0), (8.0, 60.0, 30.0), (20.0, 5.0, 5.0)])
    mobility.assign("route", scripted)
    node_ids.append("route")
    return mobility, static, node_ids


def assert_positions_bitidentical(mobility, node_ids, time):
    coords = mobility.positions_array(tuple(node_ids), time)
    assert coords.shape == (len(node_ids), 2)
    for row, node_id in enumerate(node_ids):
        x, y = mobility.position_xy(node_id, time)
        # Bit-identity, not approximation: the scalar query is the oracle.
        assert float(coords[row, 0]) == x, (node_id, time)
        assert float(coords[row, 1]) == y, (node_id, time)


@requires_numpy
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    times=st.lists(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False), min_size=1, max_size=10
    ),
)
def test_positions_array_bitidentical_to_position_xy(seed, times):
    mobility, _static, node_ids = build_mixed_mobility(seed)
    # Boundary timestamps of the scripted trace are the hardest case: the
    # scalar scan resolves exact waypoint times by branch order, and the
    # array rows must agree.
    probe_times = list(times) + [0.0, 8.0, 20.0, 25.0]
    for when in probe_times:  # given order — possibly non-monotonic
        assert_positions_bitidentical(mobility, node_ids, when)


@requires_numpy
def test_positions_array_tracks_replans_teleports_and_churn():
    mobility, static, node_ids = build_mixed_mobility(seed=7)
    # Warm the leg caches, then force mid-leg re-plans by querying far ahead
    # (every walker re-draws several legs) and coming back.
    for when in (0.0, 60.0, 3.5, 61.0, 2.0):
        assert_positions_bitidentical(mobility, node_ids, when)
    # Teleport: a mobility mutation must show in the next rows.
    static.place("s0", -40.0, 99.0)
    assert_positions_bitidentical(mobility, node_ids, 2.0)
    # Membership churn: a new node and a different query order must leave
    # existing nodes' trajectories undisturbed.
    static.place("late", 12.0, 34.0)
    mobility.assign("late", static)
    assert_positions_bitidentical(mobility, ["late"] + node_ids, 5.0)
    assert_positions_bitidentical(mobility, list(reversed(node_ids)), 66.0)


def test_positions_array_without_numpy_raises(monkeypatch):
    monkeypatch.setattr(arrays, "_numpy", None)
    mobility, _static, node_ids = build_mixed_mobility(seed=3)
    with pytest.raises(RuntimeError, match="positions_array requires NumPy"):
        mobility.positions_array(tuple(node_ids), 4.0)
