"""The array-native hot path must be byte-identical to the scalar oracle.

``ChannelConfig.array_backend`` selects between two implementations of the
simulator's hot loops — vectorized NumPy (mobility ``positions_array``, the
``ArrayGridNeighborIndex`` snapshot, batched ``link_quality_array``) and the
scalar reference code.  The scalar path is the oracle: these tests assert
bit-identity at every layer (mobility coordinates, neighbor sets, per-link
losses, whole registered experiments) plus the supporting machinery — the
no-NumPy fallback, the backend selection logic, and the profiling counters
that make the array path observable.
"""

from __future__ import annotations

import json
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import repro.arrays as arrays
from repro.arrays import numpy_available, numpy_or_none, resolve_array_backend
from repro.experiments import ExperimentConfig, available_experiments
from repro.experiments.spec import get_experiment
from repro.experiments.sweep import run_experiment
from repro.mobility import (
    CompositeMobility,
    RandomDirectionMobility,
    RandomWaypointMobility,
    ScriptedMobility,
    StaticPlacement,
)
from repro.simulation import Simulator
from repro.wireless import ChannelConfig, Radio, WirelessMedium
from repro.wireless.propagation import (
    LogDistancePropagation,
    ObstaclePropagation,
    UnitDiskPropagation,
)
from repro.wireless.spatial import (
    ARRAY_SCAN_THRESHOLD,
    ArrayGridNeighborIndex,
    BruteForceNeighborIndex,
    GridNeighborIndex,
    build_neighbor_index,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed (scalar-only environment)"
)

AREA = 200.0


# --------------------------------------------------------------- selection
def test_channel_config_validates_array_backend():
    assert ChannelConfig().array_backend == "auto"
    for choice in ("auto", "numpy", "scalar"):
        assert ChannelConfig(array_backend=choice).array_backend == choice
    with pytest.raises(ValueError):
        ChannelConfig(array_backend="cupy")
    # grid_array is a first-class neighbor_index backend.
    assert ChannelConfig(neighbor_index="grid_array").neighbor_index == "grid_array"


@requires_numpy
def test_build_neighbor_index_selects_array_grid():
    mobility = StaticPlacement({"a": (0.0, 0.0)})
    # "grid" auto-upgrades when the resolved backend is numpy (occupancy-
    # adaptive: vectorizes only once buckets are crowded)...
    auto = build_neighbor_index(ChannelConfig(neighbor_index="grid"), mobility)
    assert isinstance(auto, ArrayGridNeighborIndex)
    assert auto.scalar_query_limit is None
    # ...while "grid_array" forces the vectorized machinery at any size.
    forced = build_neighbor_index(ChannelConfig(neighbor_index="grid_array"), mobility)
    assert isinstance(forced, ArrayGridNeighborIndex)
    assert forced.scalar_query_limit == 1
    # ...while an explicit scalar backend keeps the reference grid.
    scalar = build_neighbor_index(
        ChannelConfig(neighbor_index="grid", array_backend="scalar"), mobility
    )
    assert type(scalar) is GridNeighborIndex
    assert isinstance(
        build_neighbor_index(ChannelConfig(neighbor_index="brute"), mobility),
        BruteForceNeighborIndex,
    )


def test_missing_numpy_falls_back_to_scalar_and_warns_once(monkeypatch):
    monkeypatch.setattr(arrays, "_numpy", None)
    monkeypatch.setattr(arrays, "_warned_missing_numpy", False)
    # "auto" degrades silently: a bare install is a supported configuration.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_array_backend("auto") == "scalar"
        assert resolve_array_backend("scalar") == "scalar"
        assert arrays.numpy_or_none() is None
        assert arrays.numpy_version() is None
    # An explicit "numpy" request warns — once per process, not per medium.
    with pytest.warns(RuntimeWarning, match="falling back to the scalar"):
        assert resolve_array_backend("numpy") == "scalar"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_array_backend("numpy") == "scalar"
    # grid_array degrades to the scalar grid instead of failing.
    index = build_neighbor_index(
        ChannelConfig(neighbor_index="grid_array"), StaticPlacement({"a": (0.0, 0.0)})
    )
    assert type(index) is GridNeighborIndex


def test_selection_and_metadata_do_not_import_numpy(monkeypatch):
    """The lazy contract: deciding on (and recording) a backend loads nothing;
    the first ``numpy_or_none()`` imports once and the module is then kept."""
    imports = []
    real_import = __import__

    def counting_import(name, globals=None, *args, **kwargs):
        # NumPy's own modules import numpy too; count the simulator's only.
        if name == "numpy" and (globals or {}).get("__name__", "").startswith("repro"):
            imports.append(globals["__name__"])
        return real_import(name, globals, *args, **kwargs)

    monkeypatch.setattr("builtins.__import__", counting_import)
    monkeypatch.setattr(arrays, "_numpy", arrays._NOT_LOADED)
    expected = "numpy" if numpy_available() else "scalar"
    assert resolve_array_backend("auto") == expected
    index = build_neighbor_index(ChannelConfig(), StaticPlacement({"a": (0.0, 0.0)}))
    assert isinstance(index, ArrayGridNeighborIndex) == (expected == "numpy")
    WirelessMedium(Simulator(seed=1), StaticPlacement({"a": (0.0, 0.0)}), ChannelConfig())
    assert (arrays.numpy_version() is None) == (expected == "scalar")
    assert imports == []
    assert arrays._numpy is arrays._NOT_LOADED
    first = arrays.numpy_or_none()
    assert arrays.numpy_or_none() is first
    assert (first is not None) == (expected == "numpy")
    assert imports == ["repro.arrays"]


# ------------------------------------------------- mobility bit-identity
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
        # Bit-identity, not approximation: the array path must be usable as
        # a drop-in replacement inside byte-identical trial runs.
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
    # cached leg rows must agree.
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
    # Teleport: a mobility mutation must invalidate cached rows.
    static.place("s0", -40.0, 99.0)
    assert_positions_bitidentical(mobility, node_ids, 2.0)
    # Membership churn: a new node and a different query order both force a
    # fresh row layout without disturbing existing nodes' trajectories.
    static.place("late", 12.0, 34.0)
    mobility.assign("late", static)
    assert_positions_bitidentical(mobility, ["late"] + node_ids, 5.0)
    assert_positions_bitidentical(mobility, list(reversed(node_ids)), 66.0)


def test_positions_array_without_numpy_matches_positions_at(monkeypatch):
    monkeypatch.setattr(arrays, "_numpy", None)
    mobility, _static, node_ids = build_mixed_mobility(seed=3)
    if numpy_available():
        # The guarded default materializes through scalar positions_at.
        coords = mobility.positions_array(tuple(node_ids), 4.0)
        for row, node_id in enumerate(node_ids):
            x, y = mobility.position_xy(node_id, 4.0)
            assert (float(coords[row, 0]), float(coords[row, 1])) == (x, y)
    else:
        with pytest.raises(RuntimeError):
            mobility.positions_array(tuple(node_ids), 4.0)


# ------------------------------------------------ spatial index equivalence
@requires_numpy
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    radius=st.floats(min_value=1.0, max_value=150.0, allow_nan=False),
    cell_size=st.floats(min_value=5.0, max_value=120.0, allow_nan=False),
    rebuild_interval=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
    times=st.lists(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False), min_size=1, max_size=6
    ),
    scalar_query_limit=st.sampled_from([1, 256]),
)
def test_array_grid_matches_grid_and_brute(
    seed, radius, cell_size, rebuild_interval, times, scalar_query_limit
):
    mobility, _static, node_ids = build_mixed_mobility(seed)
    brute = BruteForceNeighborIndex(mobility)
    grid = GridNeighborIndex(mobility, cell_size=cell_size, rebuild_interval=rebuild_interval)
    # An explicit scalar_query_limit is a population cut-off: 1 forces the
    # bucketed (argsort + searchsorted) query strategy even for tiny worlds,
    # 256 keeps these (at most 36-node) worlds on the scalar grid.
    array = ArrayGridNeighborIndex(
        mobility,
        cell_size=cell_size,
        rebuild_interval=rebuild_interval,
        scalar_query_limit=scalar_query_limit,
    )
    for node_id in node_ids:
        for index in (brute, grid, array):
            index.attach(node_id)
    for when in times:
        for node_id in node_ids:
            expected = brute.neighbors(node_id, radius, when)
            assert grid.neighbors(node_id, radius, when) == expected
            assert array.neighbors(node_id, radius, when) == expected
    assert array.rebuilds > 0
    if scalar_query_limit == 1:
        # Every rebuild went through the vectorized snapshot...
        assert array.array_rebuilds == array.rebuilds
    else:
        # ...while below the threshold the index is the scalar grid.
        assert array.array_rebuilds == 0


@requires_numpy
@pytest.mark.parametrize("scalar_query_limit", [1, 256])
def test_array_grid_tracks_attach_and_detach(scalar_query_limit):
    mobility = StaticPlacement({"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (20.0, 0.0)})
    array = ArrayGridNeighborIndex(mobility, cell_size=25.0, scalar_query_limit=scalar_query_limit)
    for node_id in ("a", "b", "c"):
        array.attach(node_id)
    assert array.neighbors("a", 30.0, 0.0) == ["b", "c"]
    array.detach("b")
    assert array.neighbors("a", 30.0, 0.0) == ["c"]
    array.attach("b")
    # Re-attached nodes rejoin at the back of the attach order.
    assert array.neighbors("a", 30.0, 0.0) == ["c", "b"]


@requires_numpy
@pytest.mark.parametrize("start", ["sparse", "crowded"])
def test_occupancy_rule_picks_the_strategy_and_both_sides_agree(start):
    """The unforced index goes vectorized by bucket occupancy, not population.

    120 nodes either spread over ~64 cells (a query scans ~17 candidates) or
    packed into one (a query scans 1080, above ARRAY_SCAN_THRESHOLD); the
    world then teleports to the other layout and the index follows.  On both
    sides of the threshold scalar == array == brute.
    """
    rng = random.Random(5)
    cell, count = 50.0, 120
    extents = {"sparse": 400.0, "crowded": 45.0}
    node_ids = [f"n{i}" for i in range(count)]
    mobility = StaticPlacement()

    def scatter(layout):
        for node_id in node_ids:
            mobility.place(node_id, rng.uniform(0.0, extents[layout]), rng.uniform(0.0, extents[layout]))

    scatter(start)
    indexes = {
        "brute": BruteForceNeighborIndex(mobility),
        "scalar": GridNeighborIndex(mobility, cell_size=cell),
        "forced": build_neighbor_index(
            ChannelConfig(neighbor_index="grid_array", index_cell_size=cell), mobility
        ),
        "adaptive": build_neighbor_index(
            ChannelConfig(neighbor_index="grid", index_cell_size=cell), mobility
        ),
    }
    for node_id in node_ids:
        for index in indexes.values():
            index.attach(node_id)
    adaptive, forced = indexes["adaptive"], indexes["forced"]
    assert adaptive.scalar_query_limit is None and forced.scalar_query_limit == 1

    def check(when):
        for node_id in node_ids:
            expected = indexes["brute"].neighbors(node_id, cell, when)
            for name in ("scalar", "forced", "adaptive"):
                assert indexes[name].neighbors(node_id, cell, when) == expected, name

    other = "crowded" if start == "sparse" else "sparse"
    for phase, layout in enumerate((start, other)):
        if phase:
            scatter(layout)  # a teleport: the version bump forces a rebuild
        vectorized_before = adaptive.array_rebuilds
        check(float(phase))
        occupied = len(indexes["scalar"]._cells)
        crowded = 9 * count > ARRAY_SCAN_THRESHOLD * occupied
        assert crowded == (layout == "crowded")
        assert adaptive._scalar_strategy != crowded
        if crowded:
            assert adaptive.array_rebuilds > vectorized_before
    if start == "sparse":
        # Never vectorized while sparse: the switch came with the crowd.
        assert adaptive.array_rebuilds == 1
    # grid_array vectorizes whatever the occupancy.
    assert forced.array_rebuilds == forced.rebuilds > 0


# --------------------------------------------- propagation link batching
def scalar_losses(model, sender_xy, positions, sender_id, receiver_ids, nominal):
    out = []
    for receiver_id in receiver_ids:
        rx, ry = positions[receiver_id]
        dx, dy = rx - sender_xy[0], ry - sender_xy[1]
        distance = (dx * dx + dy * dy) ** 0.5
        out.append(
            model.link_quality(
                sender_xy, (rx, ry), distance, nominal, None, link=(sender_id, receiver_id)
            )
        )
    return out


@requires_numpy
@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_link_quality_array_bitidentical(sigma):
    np = numpy_or_none()
    rng = random.Random(11)
    positions = {f"n{i}": (rng.uniform(0, AREA), rng.uniform(0, AREA)) for i in range(30)}
    sender_id = "n0"
    receiver_ids = [n for n in positions if n != sender_id]
    sender_xy = positions[sender_id]
    distances = np.sqrt(
        np.asarray(
            [
                (positions[r][0] - sender_xy[0]) ** 2 + (positions[r][1] - sender_xy[1]) ** 2
                for r in receiver_ids
            ]
        )
    )
    nominal = 60.0
    for model in (
        UnitDiskPropagation(),
        LogDistancePropagation({"sigma": sigma}),
    ):
        model.bind(sim=Simulator(seed=5))
        expected = scalar_losses(model, sender_xy, positions, sender_id, receiver_ids, nominal)
        batched = model.link_quality_array(np, sender_id, receiver_ids, distances, nominal)
        assert batched == expected  # None pattern and every loss, bit for bit


@requires_numpy
def test_obstacle_propagation_opts_out_of_batching():
    np = numpy_or_none()
    model = ObstaclePropagation()
    assert (
        model.link_quality_array(np, "a", ["b"], np.asarray([1.0]), 60.0) is None
    )


@requires_numpy
def test_medium_disables_array_path_when_model_opts_out():
    class OptOutModel(UnitDiskPropagation):
        def link_quality_array(self, np, sender_id, receiver_ids, distances, nominal_range):
            return None

    sim = Simulator(seed=4)
    mobility = StaticPlacement({f"n{i}": (float(i * 10), 0.0) for i in range(5)})
    medium = WirelessMedium(
        sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0)
    )
    medium.propagation = OptOutModel()
    medium._link_quality_array = medium.propagation.link_quality_array
    for node_id in mobility.node_ids:
        Radio(sim, medium, node_id)
    reachable = medium._evaluate_links("n0", 60.0, ["n1", "n2", "n3"], 0.0)
    assert [r for r, _loss in reachable] == ["n1", "n2", "n3"]
    # One opt-out disables the batched path permanently (per-pair-only model).
    assert medium._link_quality_array is None
    assert medium.vectorized_link_evaluations == 0
    assert medium.link_evaluations == 3


@requires_numpy
def test_medium_counts_vectorized_link_evaluations():
    sim = Simulator(seed=4)
    mobility = StaticPlacement({f"n{i}": (float(i * 10), 0.0) for i in range(6)})
    medium = WirelessMedium(sim, mobility, ChannelConfig(wifi_range=60.0, loss_rate=0.0))
    for node_id in mobility.node_ids:
        Radio(sim, medium, node_id)
    assert medium._link_quality_array is not None
    reachable = medium._evaluate_links("n0", 60.0, ["n1", "n2", "n3", "n4"], 0.0)
    assert [r for r, _loss in reachable] == ["n1", "n2", "n3", "n4"]
    assert medium.vectorized_link_evaluations == 4
    assert medium.link_evaluations == 4


# ------------------------------------------- whole-experiment equivalence
def _strip_profiles(payload):
    """Drop per-trial profiles: wall-clock metrics differ run to run, and
    the array/scalar counters (array_rebuilds, vectorized_link_evaluations)
    differ across backends by design.  Everything else must be identical."""
    for point in payload.get("points", ()):
        for trial in point.get("trial_results", ()):
            trial.pop("profile", None)
    return payload


def _spec_fingerprint(name, backend):
    spec = get_experiment(name)
    config = ExperimentConfig.tiny().with_overrides(
        max_duration=60.0, array_backend=backend
    )
    # One value per axis keeps each spec's grid tiny; every variant and the
    # full simulation stack still run.
    axes = {axis.name: (axis.values[0],) for axis in spec.axes} or None
    result = run_experiment(name, config, axes=axes)
    return _strip_profiles(json.loads(result.to_json()))


@requires_numpy
@pytest.mark.parametrize("name", available_experiments())
def test_registered_specs_byte_identical_numpy_vs_scalar(name):
    assert _spec_fingerprint(name, "numpy") == _spec_fingerprint(name, "scalar")


# -------------------------------------------------------------- profiling
@requires_numpy
def test_profile_surfaces_array_counters():
    from repro.experiments import run_protocol_trial

    config = ExperimentConfig.tiny().with_overrides(max_duration=60.0, profile=True)
    trial = run_protocol_trial("dapes", config, seed=1)
    profile = trial.profile
    assert profile is not None
    # Tiny worlds stay on the adaptive scalar strategy: the counter is
    # surfaced (the array index is active) but no vectorized snapshot ran.
    assert profile["spatial.array_rebuilds"] == 0.0
    assert profile["spatial.snapshot_rebuilds"] > 0
    assert profile["propagation.vectorized_link_evaluations"] >= 0
    forced = run_protocol_trial(
        "dapes", config.with_overrides(neighbor_index="grid_array"), seed=1
    )
    assert forced.profile["spatial.array_rebuilds"] > 0
    assert forced.profile["spatial.array_rebuilds"] == forced.profile["spatial.snapshot_rebuilds"]
    # Forcing the vectorized machinery must not change the simulation.
    assert forced.events == trial.events
    assert forced.download_times == trial.download_times
    assert forced.transmissions == trial.transmissions
    scalar = run_protocol_trial(
        "dapes", config.with_overrides(array_backend="scalar"), seed=1
    )
    assert "spatial.array_rebuilds" not in scalar.profile
    assert scalar.profile["propagation.vectorized_link_evaluations"] == 0.0


def test_diff_flags_cross_backend_comparisons():
    """`repro-experiments diff` prepends a NOTE when the two stored runs were
    produced by different array backends (wall-clock numbers not comparable)."""
    from types import SimpleNamespace

    from repro.experiments.__main__ import _cross_backend_note

    def record(backend, version):
        return SimpleNamespace(
            meta={"registries": {"array_backend": backend, "numpy_version": version}}
        )

    note = _cross_backend_note(record("scalar", None), record("numpy", "2.0.0"))
    assert note is not None
    assert "cross-backend" in note
    assert "array_backend=scalar" in note
    assert "numpy (numpy 2.0.0)" in note
    # Same backend, missing metadata, or a file-path side (record=None): no note.
    assert _cross_backend_note(record("numpy", "2.0.0"), record("numpy", "2.0.0")) is None
    assert _cross_backend_note(record(None, None), record("numpy", "2.0.0")) is None
    assert _cross_backend_note(None, record("numpy", "2.0.0")) is None
