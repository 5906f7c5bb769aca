"""Tests for the experiment harness: configs, metrics, scenarios and runners."""

from dataclasses import fields

import pytest

from repro.core import DapesConfig
from repro.experiments import (
    ExperimentConfig,
    ResultSet,
    RunResult,
    get_builder,
    improvements,
    percentile,
    run_experiment,
    to_text,
)
from repro.experiments.fig9_bitmaps import _budget_label
from repro.experiments.fig9_multihop import _probability_label
from repro.experiments.metrics import SweepPoint, SweepResult, aggregate_trials
from repro.experiments.runner import run_protocol_trial, run_trials
from repro.experiments.scenario import build_collection
from repro.experiments.topology import get_topology
from repro.simulation import Simulator
from repro.wireless import ChannelConfig


# --------------------------------------------------------------------- config
def test_experiment_config_presets_are_consistent():
    paper = ExperimentConfig.paper()
    small = ExperimentConfig.small()
    tiny = ExperimentConfig.tiny()
    assert paper.total_packets == 10 * 977  # ten 1 MB files of 1 KB packets (ceil)
    assert small.total_packets < paper.total_packets
    assert tiny.downloader_count < small.downloader_count < paper.downloader_count
    assert paper.downloader_count == 23


def test_config_with_overrides_reaches_dapes_fields():
    config = ExperimentConfig.tiny().with_overrides(wifi_range=42.0, dapes_rpf_strategy="encounter")
    assert config.wifi_range == 42.0
    assert config.dapes.rpf_strategy == "encounter"
    # The original is unchanged (value semantics).
    assert ExperimentConfig.tiny().dapes.rpf_strategy == "local"


# A valid non-default value per field ExperimentConfig mirrors from
# ChannelConfig; a newly mirrored field fails the lookup until it has one.
SHARED_CHANNEL_FIELDS = {
    "wifi_range": 33.0,
    "loss_rate": 0.25,
    "propagation": "log_distance",
    "propagation_params": {"exponent": 3.5},
}


@pytest.mark.parametrize(
    "name",
    sorted({f.name for f in fields(ExperimentConfig)} & {f.name for f in fields(ChannelConfig)}),
)
def test_channel_threads_every_field_shared_with_channel_config(name):
    value = SHARED_CHANNEL_FIELDS[name]
    assert value != getattr(ExperimentConfig.tiny(), name)
    overrides = {name: value}
    if name == "propagation_params":
        overrides["propagation"] = "log_distance"  # the model these params belong to
    config = ExperimentConfig.tiny().with_overrides(**overrides)
    assert getattr(config.channel(), name) == value
    assert getattr(ExperimentConfig.from_dict(config.as_dict()).channel(), name) == value


def test_from_dict_names_unknown_keys():
    data = ExperimentConfig.tiny().as_dict()
    data.update(shards=4, scalar_query_limit=7, array_backend="numpy")
    with pytest.raises(
        ValueError, match=r"unknown ExperimentConfig field\(s\): array_backend, scalar_query_limit, shards"
    ):
        ExperimentConfig.from_dict(data)
    for removed in ({"shards": 4}, {"array_backend": "scalar"}):
        with pytest.raises(TypeError):  # a removed knob is an error, not a warning
            ExperimentConfig.tiny().with_overrides(**removed)
    # The nested DAPES config is held to the same rule: every unknown key, sorted.
    data = ExperimentConfig.tiny().as_dict()
    data["dapes"].update(pipeline_size=4, interest_lifetime=2.0)
    with pytest.raises(
        ValueError, match=r"unknown DapesConfig field\(s\): interest_lifetime, pipeline_size"
    ):
        ExperimentConfig.from_dict(data)


def test_config_field_sets_are_pinned():
    """Each field below is set by some spec, test or example.  A timer or
    limit that no experiment varies is a module constant instead
    (``repro.core.config``, ``repro.wireless.medium``)."""
    assert [f.name for f in fields(DapesConfig)] == [
        "metadata_format", "rpf_strategy", "random_start", "bitmap_exchange", "max_bitmaps",
        "peba_enabled", "multi_hop", "forwarding_probability", "interested_in_all",
        "retransmit_jitter", "dark_neighbor_fallback",
    ]
    assert [f.name for f in fields(ChannelConfig)] == [
        "data_rate_bps", "wifi_range", "loss_rate", "per_frame_overhead_s", "index_cell_size",
        "index_rebuild_interval", "propagation", "propagation_params", "unicast_retry_backoff",
        "inter_frame_space",
    ]
    assert [f.name for f in fields(ExperimentConfig)] == [
        "area_size", "stationary_nodes", "mobile_downloaders", "pure_forwarders",
        "intermediate_nodes", "min_speed", "max_speed", "wifi_range", "loss_rate", "topology",
        "propagation", "propagation_params", "obstacle_density", "num_files", "file_size",
        "packet_size", "max_duration", "trials", "base_seed", "percentile", "profile", "churn",
        "churn_params", "faults", "fault_params", "dapes",
    ]


def test_dapes_config_validation():
    with pytest.raises(ValueError):
        DapesConfig(rpf_strategy="bogus")
    with pytest.raises(ValueError):
        DapesConfig(bitmap_exchange="sometimes")
    with pytest.raises(ValueError):
        DapesConfig(forwarding_probability=2.0)
    with pytest.raises(ValueError):
        DapesConfig(max_bitmaps=0)


def test_build_collection_matches_config():
    config = ExperimentConfig.tiny()
    collection = build_collection(config)
    assert len(collection.files) == config.num_files
    assert collection.total_packets == config.total_packets


# -------------------------------------------------------------------- metrics
def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile([10], 90) == 10


def test_run_result_mean_counts_incomplete_as_duration():
    result = RunResult(protocol="dapes", seed=1, download_times={"a": 10.0}, incomplete_nodes=["b"], duration=100.0)
    assert result.mean_download_time == pytest.approx(55.0)
    assert result.completion_ratio == pytest.approx(0.5)


def test_aggregate_trials_uses_percentile():
    results = [
        RunResult(protocol="dapes", seed=i, download_times={"a": float(i)}, transmissions=i * 10, duration=10.0)
        for i in range(1, 11)
    ]
    point = aggregate_trials("label", {"x": 1}, results, q=90.0)
    assert point.download_time == pytest.approx(percentile([float(i) for i in range(1, 11)], 90))
    assert point.trials == 10
    with pytest.raises(ValueError):
        aggregate_trials("label", {}, [], q=90)


def test_sweep_result_rows_series_and_lookup():
    sweep = SweepResult(name="n", description="d")
    sweep.add_point(SweepPoint("A", {"wifi_range": 40}, 10.0, 100.0, 1.0, 1))
    sweep.add_point(SweepPoint("A", {"wifi_range": 80}, 8.0, 120.0, 1.0, 1))
    sweep.add_point(SweepPoint("B", {"wifi_range": 40}, 20.0, 200.0, 1.0, 1))
    assert len(sweep.rows()) == 3
    results = ResultSet.from_sweep(sweep)
    assert results.series("download_time")["A"] == [10.0, 8.0]
    assert results.series("transmissions")["B"] == [200.0]
    assert sweep.point("A", wifi_range=80).download_time == 8.0
    assert sweep.point("C") is None
    assert to_text(sweep)  # renders without error


def test_labels_helpers():
    assert _budget_label(None) == "All bitmaps"
    assert _budget_label(1) == "1 bitmap"
    assert _budget_label(3) == "3 bitmaps"
    assert _probability_label(None) == "Single-hop"
    assert _probability_label(0.4) == "Multi-hop, forwarding probability=40%"


# ------------------------------------------------------------------- scenarios
def test_dapes_scenario_structure():
    config = ExperimentConfig.tiny()
    scenario = get_builder("dapes").build(config, 1)
    assert len(scenario.downloader_ids) == config.downloader_count
    assert scenario.producer_id not in scenario.downloader_ids
    assert len(scenario.pure_forwarders) == config.pure_forwarders
    # Producer already holds the whole collection; downloaders hold nothing.
    assert scenario.nodes[scenario.producer_id].peer.progress(scenario.collection_id) == 1.0
    assert scenario.nodes[scenario.downloader_ids[0]].peer.progress(scenario.collection_id) == 0.0


def test_ip_scenario_structure():
    config = ExperimentConfig.tiny()
    scenario = get_builder("bithoc").build(config, 1)
    assert scenario.peers[scenario.seed_id].is_complete
    assert len(scenario.downloader_ids) == config.downloader_count
    assert all(not scenario.peers[node].is_complete for node in scenario.downloader_ids)
    with pytest.raises(ValueError):
        get_builder("gnutella")


# --------------------------------------------------------------------- runners
def test_run_protocol_trial_dapes_tiny_completes():
    config = ExperimentConfig.tiny()
    result = run_protocol_trial("dapes", config, seed=3)
    assert result.protocol == "dapes"
    assert result.completion_ratio == 1.0
    assert result.transmissions > 0
    assert set(result.download_times) <= set(f"mobile-{i}" for i in range(1, 10)) | {"repo-0"}


def test_run_protocol_trial_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        run_protocol_trial("gnutella", ExperimentConfig.tiny(), seed=1)


def test_run_trials_aggregates_with_label_and_parameters():
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=240.0)
    point = run_trials("dapes", config, "DAPES", parameters={"wifi_range": config.wifi_range})
    assert point.label == "DAPES"
    assert point.trials == 2
    assert point.parameters["wifi_range"] == config.wifi_range
    assert point.download_time > 0


def test_removed_compat_names_fail_loudly():
    """The deleted second way in stays deleted: no shim, alias or fallback."""
    import importlib

    removed = {
        "repro.experiments": ("RpfStrategyExperiment", "ComparisonExperiment", "FeasibilityStudy"),
        "repro.experiments.fig9_rpf": ("RpfStrategyExperiment", "PebaExperiment"),
        "repro.experiments.fig9_bitmaps": ("BitmapsBeforeDataExperiment", "BitmapsInterleavedExperiment"),
        "repro.experiments.fig9_scaling": ("FileCountExperiment", "FileSizeExperiment"),
        "repro.experiments.fig9_multihop": ("ForwardingProbabilityExperiment",),
        "repro.experiments.fig10_comparison": ("ComparisonExperiment",),
        "repro.experiments.table1_feasibility": ("FeasibilityStudy",),
        "repro.experiments.spec": ("deprecated_shim", "warn_deprecated_shim"),
        "repro.experiments.runner": ("run_dapes_trial", "run_ip_trial", "_pool_trial"),
        "repro.experiments.scenario": ("build_dapes_scenario", "build_ip_scenario"),
    }
    with pytest.raises(ImportError):
        from repro.experiments import RpfStrategyExperiment  # noqa: F401
    for module_name, names in removed.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    sweep = SweepResult(name="n", description="d")
    for method in ("series", "summary"):
        with pytest.raises(AttributeError):
            getattr(sweep, method)
    config = ExperimentConfig.tiny()
    with pytest.raises(TypeError):
        run_trials("dapes", config, "DAPES", dapes_config=DapesConfig())
    with pytest.raises(TypeError):
        run_protocol_trial("dapes", config, 1, dapes_config=DapesConfig())
    with pytest.raises(TypeError):
        get_builder("dapes").build(config, 1, dapes_config=DapesConfig())

    # One persistence layout and one pool-size knob: the store and workers=.
    import repro.experiments.__main__ as cli
    import repro.experiments.sweep as sweep_module

    for name in ("_prepare", "_flatten_tasks", "_aggregate", "_PreparedRequest"):
        assert not hasattr(sweep_module, name), name
    with pytest.raises(TypeError):
        sweep_module.run_experiment("fig9a", config, out_dir="unused")
    with pytest.raises(TypeError):
        ExperimentConfig(workers=2)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "fig9a", "--preset", "tiny", "--out", "unused"])
    assert exit_info.value.code == 2

    # One trial path: Table I runs on the DAPES builder.  The field lists
    # are exact, so neither a spec nor a task can carry a trial runner or a
    # config transform of its own, and no runner exists beside these four.
    import repro.experiments as experiments
    import repro.experiments.table1_feasibility as table1
    from repro.experiments import ExperimentSpec
    from repro.experiments.sweep import SweepTask

    assert [field.name for field in fields(ExperimentSpec)] == [
        "name", "title", "description", "artefacts", "axes", "variants",
        "overrides", "aliases", "aggregate_fn",
    ]
    assert [field.name for field in fields(SweepTask)] == [
        "key", "experiment", "request", "point", "trial", "label", "protocol",
        "config", "seed", "parameters",
    ]
    runners = {name for name in dir(experiments) if name.startswith("run_")}
    assert runners == {"run_experiment", "run_protocol_trial", "run_suite", "run_trials"}
    assert not [name for name in dir(table1) if name.startswith("run_")]
    assert "pickle" not in vars(sweep_module)


def test_removed_gate_and_oracle_names_fail_loudly(capsys):
    """The throughput gate and the oracle selectors stay deleted: the oracles
    live in tests/oracles.py and nothing in the production config selects them."""
    import repro.experiments.__main__ as cli
    from repro.experiments import report

    for argv, message in (
        (["perf-gate"], "invalid choice: 'perf-gate'"),
        (["run", "scaling", "--preset", "tiny"], "unknown experiment 'scaling'"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
    assert not hasattr(report, "throughput_verdict")
    assert not hasattr(cli, "DEFAULT_GATE_BASELINE")
    with pytest.raises(TypeError):
        ChannelConfig(delivery="per_receiver")
    with pytest.raises(TypeError):
        ExperimentConfig(neighbor_index="brute")
    for key, value in (("neighbor_index", "grid"), ("delivery", "batched")):
        data = dict(ExperimentConfig.tiny().as_dict(), **{key: value})
        with pytest.raises(ValueError, match=rf"unknown ExperimentConfig field\(s\): {key}"):
            ExperimentConfig.from_dict(data)


def test_comparison_improvements_math():
    sweep = SweepResult(name="cmp", description="")
    sweep.add_point(SweepPoint("DAPES", {"wifi_range": 60.0}, 10.0, 100.0, 1.0, 1))
    sweep.add_point(SweepPoint("Bithoc", {"wifi_range": 60.0}, 20.0, 400.0, 1.0, 1))
    assert improvements(sweep, metric="download_time")["Bithoc"][0] == pytest.approx(0.5)
    assert improvements(sweep, metric="transmissions")["Bithoc"][0] == pytest.approx(0.75)


# ------------------------------------------------------------------ Table I
@pytest.mark.parametrize("name", ["fig8_carrier", "fig8_repository", "fig8_moving"])
def test_fig8_topologies_script_every_node_and_complete(name):
    config = ExperimentConfig.tiny().with_overrides(topology=name)
    topology = get_topology(name)
    names = topology.node_names(config)
    mobility = topology.build_mobility(config, Simulator(seed=1), names)
    named = [node_id for role in names.values() for node_id in role]
    assert sorted(named) == sorted(mobility.node_ids)  # every named node has a trajectory
    assert names["downloaders"][0] == topology.PRODUCER

    scenario = get_builder("dapes").build(config, seed=1)
    assert scenario.producer_id == topology.PRODUCER
    result = run_protocol_trial("dapes", config, seed=1)
    assert result.incomplete_nodes == []
    assert sorted(result.download_times) == sorted(scenario.downloader_ids)
    assert result.transmissions > 0


def test_table1_honours_the_trial_knobs():
    """Table I runs the generic trial: faults, invariants and profiles reach it."""
    config = ExperimentConfig.tiny().with_overrides(faults="link_flap", profile=True)
    result = run_experiment("table1", config, workers=2)
    trials = [trial for point in result.points for trial in point.trial_results]
    assert len(trials) == 3
    for trial in trials:
        assert any(key.startswith("faults.") for key in trial.extras)
        assert trial.profile
    for point in result.points:
        assert point.completion_ratio == 1.0
        assert {"memory_overhead_mb", "context_switches", "system_calls", "page_faults"} <= set(point.extras)
        assert any(key.startswith("faults.") for key in point.extras)


@pytest.mark.parametrize(
    "argv, pinned",
    [(["urban", "--topology", "quadrant"], "topology"), (["table1", "--trials", "3"], "trials")],
)
def test_cli_notes_spec_overrides_that_pin_a_flag(capsys, argv, pinned):
    import repro.experiments.__main__ as cli

    assert cli.main(["run", *argv, "--preset", "tiny", "--dry-run"]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
    assert len(notes) == 1
    assert f"{argv[0]} pins" in notes[0] and pinned in notes[0]


# ----------------------------------------------------- metrics edge cases
def test_percentile_q100_is_maximum():
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0


def test_percentile_single_value_any_q():
    for q in (0, 50, 90, 100):
        assert percentile([7.5], q) == 7.5


def test_mean_download_time_all_trials_incomplete_counts_duration():
    result = RunResult(
        protocol="dapes", seed=1, download_times={},
        incomplete_nodes=["a", "b"], duration=120.0,
    )
    assert result.mean_download_time == pytest.approx(120.0)
    assert result.completion_ratio == 0.0


def test_mean_download_time_no_downloaders_is_nan():
    import math

    result = RunResult(protocol="dapes", seed=1)
    assert math.isnan(result.mean_download_time)
    assert result.completion_ratio == 0.0


def test_aggregate_trials_single_trial_passes_values_through():
    result = RunResult(
        protocol="dapes", seed=1, download_times={"a": 12.0},
        transmissions=34, duration=50.0,
    )
    point = aggregate_trials("solo", {"x": 1}, [result], q=90.0)
    assert point.download_time == pytest.approx(12.0)
    assert point.transmissions == pytest.approx(34.0)
    assert point.completion_ratio == 1.0
    assert point.trials == 1


def test_aggregate_trials_all_incomplete_aggregates_durations():
    results = [
        RunResult(protocol="dapes", seed=i, download_times={},
                  incomplete_nodes=["a"], duration=100.0 + i)
        for i in range(3)
    ]
    point = aggregate_trials("stuck", {}, results, q=100.0)
    assert point.download_time == pytest.approx(102.0)  # q=100 -> slowest duration
    assert point.completion_ratio == 0.0


def test_sweep_result_point_index_matches_linear_scan_semantics():
    sweep = SweepResult(name="n", description="d")
    first = SweepPoint("A", {"wifi_range": 40, "variant": 1}, 10.0, 100.0, 1.0, 1)
    second = SweepPoint("A", {"wifi_range": 40, "variant": 2}, 8.0, 120.0, 1.0, 1)
    sweep.add_point(first)
    sweep.add_point(second)
    # Full-parameter lookups hit the exact index.
    assert sweep.point("A", wifi_range=40, variant=2) is second
    # Partial-parameter lookups keep first-match-in-insertion-order semantics.
    assert sweep.point("A", wifi_range=40) is first
    assert sweep.point("A") is first
    assert sweep.point("B", wifi_range=40) is None
    # Constructor-passed points are indexed too (from_json path).
    rebuilt = SweepResult(name="n", description="d", points=[first, second])
    assert rebuilt.point("A", wifi_range=40, variant=2) is second
