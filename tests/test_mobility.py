"""Unit tests for the mobility models."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.mobility
from repro.arrays import numpy_available
from repro.mobility import (
    CompositeMobility,
    Position,
    RandomDirectionMobility,
    ScriptedMobility,
    StaticPlacement,
    Waypoint,
    street_walk,
)


def test_every_model_implements_only_position_xy():
    assert set(repro.mobility.__all__) == {
        "CompositeMobility", "MobilityModel", "Position", "RandomDirectionMobility",
        "ScriptedMobility", "StaticPlacement", "Waypoint", "street_walk",
    }
    for model in (CompositeMobility, RandomDirectionMobility, ScriptedMobility, StaticPlacement):
        assert "position_xy" in vars(model) and "position" not in vars(model), model


def test_position_distance():
    assert math.dist(Position(0, 0), Position(3, 4)) == pytest.approx(5.0)


def test_static_placement_returns_fixed_positions():
    model = StaticPlacement({"a": (1.0, 2.0)})
    assert model.position("a", 0.0) == Position(1.0, 2.0)
    assert model.position("a", 1000.0) == Position(1.0, 2.0)


def test_static_placement_unknown_node_raises():
    with pytest.raises(KeyError):
        StaticPlacement().position("ghost", 0.0)


def test_random_direction_stays_inside_area():
    model = RandomDirectionMobility(width=100, height=100, rng=random.Random(1))
    model.add_node("n")
    for time in range(0, 500, 7):
        position = model.position("n", float(time))
        assert -1e-6 <= position.x <= 100 + 1e-6
        assert -1e-6 <= position.y <= 100 + 1e-6


def test_random_direction_is_deterministic_for_same_rng_seed():
    a = RandomDirectionMobility(rng=random.Random(5))
    b = RandomDirectionMobility(rng=random.Random(5))
    a.add_node("n")
    b.add_node("n")
    for time in (0.0, 10.0, 100.0, 250.0):
        assert a.position("n", time) == b.position("n", time)


def test_random_direction_queries_out_of_order_are_consistent():
    model = RandomDirectionMobility(rng=random.Random(2))
    model.add_node("n")
    late = model.position("n", 200.0)
    early = model.position("n", 50.0)
    late_again = model.position("n", 200.0)
    assert late == late_again
    assert isinstance(early, Position)


def test_random_direction_respects_speed_bounds():
    model = RandomDirectionMobility(width=1000, height=1000, min_speed=2.0, max_speed=10.0,
                                    rng=random.Random(3))
    model.add_node("n", initial_position=(500.0, 500.0))
    previous = model.position("n", 0.0)
    for step in range(1, 50):
        current = model.position("n", float(step))
        distance = math.dist(previous, current)
        assert distance <= 10.0 + 1e-6  # cannot exceed max speed per second
        previous = current


def test_random_direction_initial_position_respected():
    model = RandomDirectionMobility(rng=random.Random(4))
    model.add_node("n", initial_position=(10.0, 20.0))
    assert model.position("n", 0.0) == Position(10.0, 20.0)


def test_random_direction_unknown_node_raises():
    model = RandomDirectionMobility(rng=random.Random(1))
    with pytest.raises(KeyError):
        model.position("ghost", 1.0)


def test_random_direction_invalid_speed_rejected():
    with pytest.raises(ValueError):
        RandomDirectionMobility(min_speed=0.0)
    with pytest.raises(ValueError):
        RandomDirectionMobility(min_speed=5.0, max_speed=2.0)


def test_scripted_mobility_interpolates_linearly():
    model = ScriptedMobility()
    model.add_node("n", [Waypoint(0.0, 0.0, 0.0), Waypoint(10.0, 100.0, 0.0)])
    midpoint = model.position("n", 5.0)
    assert midpoint.x == pytest.approx(50.0)
    assert midpoint.y == pytest.approx(0.0)


def test_scripted_mobility_clamps_before_and_after_trace():
    model = ScriptedMobility()
    model.add_node("n", [(5.0, 10.0, 10.0), (15.0, 20.0, 20.0)])
    assert model.position("n", 0.0) == Position(10.0, 10.0)
    assert model.position("n", 100.0) == Position(20.0, 20.0)


def test_scripted_mobility_static_node_helper():
    model = ScriptedMobility()
    model.add_static_node("repo", 3.0, 4.0)
    assert model.position("repo", 123.0) == Position(3.0, 4.0)


def test_scripted_mobility_requires_waypoints():
    model = ScriptedMobility()
    with pytest.raises(ValueError):
        model.add_node("n", [])


def test_scripted_mobility_unknown_node_raises():
    with pytest.raises(KeyError):
        ScriptedMobility().position("ghost", 0.0)


# ---- scripted hot paths vs. the linear-scan reference they replaced ------
def interpolate_by_scan(waypoints, time):
    """The reference: first waypoint pair whose closed interval holds ``time``."""
    if time <= waypoints[0].time:
        return (waypoints[0].x, waypoints[0].y)
    if time >= waypoints[-1].time:
        return (waypoints[-1].x, waypoints[-1].y)
    for earlier, later in zip(waypoints, waypoints[1:]):
        if earlier.time <= time <= later.time:
            span = later.time - earlier.time
            fraction = 0.0 if span == 0 else (time - earlier.time) / span
            return (
                earlier.x + (later.x - earlier.x) * fraction,
                earlier.y + (later.y - earlier.y) * fraction,
            )
    raise AssertionError("unreachable for sorted waypoints")


def speed_bound_by_walk(traces):
    """The reference: every leg of every trace, through ``math.dist``."""
    fastest = 0.0
    for waypoints in traces:
        for earlier, later in zip(waypoints, waypoints[1:]):
            span = later.time - earlier.time
            if span > 0:
                distance = math.dist((earlier.x, earlier.y), (later.x, later.y))
                fastest = max(fastest, distance / span)
    return fastest


def bits(xy):
    return tuple(float(value).hex() for value in xy)


# Times come from a small lattice as often as not, so traces hold duplicate
# timestamps (zero-span legs); "+ 0.0" folds -0.0 into 0.0 (resting legs
# evaluate ``x + 0.0 * f``, which is x for every x but -0.0).
_coordinate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(lambda v: v + 0.0)
_time = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
_trace = st.lists(st.tuples(_time, _coordinate, _coordinate), min_size=1, max_size=9)


@settings(max_examples=150, deadline=None)
@given(traces=st.lists(_trace, min_size=1, max_size=3), extra=st.lists(_time, max_size=6), data=st.data())
def test_scripted_hot_paths_match_the_linear_scan_bit_for_bit(traces, extra, data):
    model = ScriptedMobility()
    node_ids = tuple(f"n{index}" for index in range(len(traces)))
    for node_id, trace in zip(node_ids, traces):
        model.add_node(node_id, trace)
    stamps = sorted({time for trace in traces for time, _x, _y in trace})
    queries = set(extra) | set(stamps) | {stamps[0] - 1.0, stamps[-1] + 1.0}
    for stamp in stamps:  # a hair either side of every waypoint
        queries |= {math.nextafter(stamp, -math.inf), math.nextafter(stamp, math.inf)}
    queries |= {(a + b) / 2 for a, b in zip(stamps, stamps[1:])}
    # One model instance answers them all, out of time order.
    for time in data.draw(st.permutations(sorted(queries))):
        rows = model.positions_array(node_ids, time).tolist() if numpy_available() else None
        for row, node_id in enumerate(node_ids):
            expected = bits(interpolate_by_scan(model._waypoints[node_id], time))
            assert bits(model.position_xy(node_id, time)) == expected, (node_id, time)
            assert bits(tuple(model.position(node_id, time))) == expected, (node_id, time)
            if rows is not None:
                assert bits(rows[row]) == expected, (node_id, time)


def test_scripted_duplicate_timestamps_jump_after_the_instant():
    model = ScriptedMobility()
    model.add_node("n", [(0.0, 0.0, 0.0), (10.0, 10.0, 0.0), (10.0, 50.0, 5.0), (20.0, 60.0, 5.0)])
    assert model.position_xy("n", 10.0) == (10.0, 0.0)          # still the first leg's end
    assert model.position_xy("n", math.nextafter(10.0, 11.0))[0] >= 50.0
    # Duplicates at the very end: the resting branch owns the last timestamp,
    # even with the preceding leg already cached.
    model.add_node("m", [(0.0, 0.0, 0.0), (10.0, 10.0, 0.0), (10.0, 50.0, 5.0)])
    assert model.position_xy("m", 5.0) == (5.0, 0.0)
    assert model.position_xy("m", 10.0) == (50.0, 5.0)
    if numpy_available():
        assert model.positions_array(("m",), 5.0).tolist() == [[5.0, 0.0]]
        assert model.positions_array(("m",), 10.0).tolist() == [[50.0, 5.0]]


@settings(max_examples=60, deadline=None)
@given(first=_trace, second=_trace, replacement=_trace)
def test_scripted_speed_bound_tracks_every_registration(first, second, replacement):
    model = ScriptedMobility()
    assert model.speed_bound() == 0.0
    model.add_node("a", first)
    assert model.speed_bound() == speed_bound_by_walk(model._waypoints.values())
    model.add_node("b", second)
    assert model.speed_bound() == speed_bound_by_walk(model._waypoints.values())
    # Re-registering replaces the trace: its old legs no longer count.
    model.add_node("a", replacement)
    assert model.speed_bound() == speed_bound_by_walk(model._waypoints.values())
    assert model.speed_bound() == model.speed_bound()


def test_speed_bound_through_street_grid_and_composite():
    lines = (0.0, 50.0, 100.0)
    rng = random.Random(9)
    street = ScriptedMobility()
    composite = CompositeMobility()
    composite.assign("repo", StaticPlacement({"repo": (0.0, 0.0)}))
    for index in range(5):
        street.add_node(f"w{index}", street_walk(lines, lines, 1.0, 4.0, rng, 120.0))
        composite.assign(f"w{index}", street)
        expected = speed_bound_by_walk(street._waypoints.values())
        assert 0.0 < expected <= 4.0
        assert street.speed_bound() == composite.speed_bound() == expected


def test_composite_mobility_dispatches_by_node():
    static = StaticPlacement({"s": (1.0, 1.0)})
    scripted = ScriptedMobility()
    scripted.add_node("m", [(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)])
    composite = CompositeMobility()
    composite.assign("s", static)
    composite.assign("m", scripted)
    assert composite.position("s", 5.0) == Position(1.0, 1.0)
    assert composite.position("m", 5.0).x == pytest.approx(5.0)
    with pytest.raises(KeyError):
        composite.position("ghost", 0.0)

