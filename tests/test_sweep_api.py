"""The declarative sweep API: spec registry, scheduler, persistence, CLI."""

import json
import re

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import (
    Axis,
    ExperimentConfig,
    ExperimentSpec,
    RunResult,
    SweepResult,
    Variant,
    available_experiments,
    get_experiment,
    register_experiment,
    run_experiment,
)
from repro.experiments.spec import PlanError
from repro.experiments.sweep import sweep_cache_key

ALL_ARTEFACTS = {
    "Fig. 9a", "Fig. 9b", "Fig. 9c", "Fig. 9d", "Fig. 9e", "Fig. 9f",
    "Fig. 9g", "Fig. 9h", "Fig. 10a", "Fig. 10b", "Table I",
}


# ------------------------------------------------------------------ registry
def test_registry_covers_all_paper_artefacts():
    names = set(available_experiments())
    assert names >= {"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f", "fig9gh", "fig10", "table1"}
    artefacts = set()
    for name in names:
        artefacts.update(get_experiment(name).artefacts)
    assert artefacts >= ALL_ARTEFACTS


def test_aliases_resolve_to_canonical_specs():
    assert get_experiment("fig9g").name == "fig9gh"
    assert get_experiment("fig9h").name == "fig9gh"
    assert get_experiment("fig10a").name == "fig10"
    assert get_experiment("FIG10B").name == "fig10"
    assert get_experiment("tablei").name == "table1"
    with pytest.raises(ValueError, match="unknown experiment"):
        get_experiment("fig99")


def test_register_duplicate_name_raises():
    with pytest.raises(ValueError, match="already registered"):
        register_experiment(ExperimentSpec(name="fig9a", title="dup", description=""))
    with pytest.raises(ValueError, match="already registered"):
        register_experiment(
            ExperimentSpec(name="_unique_spec", title="", description="", aliases=("fig9g",))
        )


# ------------------------------------------------------------------ planning
def test_plan_orders_axes_outer_variants_inner():
    spec = get_experiment("fig9a")
    plans = spec.plan(ExperimentConfig.tiny(), axes={"wifi_range": (40.0, 80.0)})
    assert len(plans) == 2 * 4
    assert [plan.parameters["wifi_range"] for plan in plans] == [40.0] * 4 + [80.0] * 4
    assert plans[0].config.wifi_range == 40.0
    # Spec-level overrides reach the per-point DAPES config.
    assert plans[0].config.dapes.bitmap_exchange == "before"
    assert plans[0].config.dapes.rpf_strategy == "encounter"
    assert plans[0].parameters == {
        "wifi_range": 40.0, "rpf_strategy": "encounter", "random_start": False,
    }


def test_scaled_axis_resolves_factors_against_preset():
    config = ExperimentConfig.tiny()  # num_files=1
    plans = get_experiment("fig9e").plan(
        config, axes={"wifi_range": (80.0,), "num_files_factor": (1, 3)}
    )
    assert [plan.parameters["num_files"] for plan in plans] == [1, 3]
    assert [plan.config.num_files for plan in plans] == [1, 3]
    assert plans[1].label == "Number of files=3"
    # Fig. 9f labels show the factor, parameters the resolved size.
    plans = get_experiment("fig9f").plan(
        config, axes={"wifi_range": (80.0,), "file_size_factor": (5,)}
    )
    assert plans[0].label == "File size factor=5x"
    assert plans[0].parameters["file_size"] == config.file_size * 5


def test_unknown_axis_override_raises():
    with pytest.raises(ValueError, match="no axes"):
        get_experiment("fig9a").plan(axes={"bogus": (1,)})


def test_task_count_multiplies_points_by_trials():
    config = ExperimentConfig.tiny().with_overrides(trials=3)
    spec = get_experiment("fig9a")
    assert spec.task_count(config, axes={"wifi_range": (80.0,)}) == 4 * 3


# ------------------------------------------------------------- persistence
def test_run_result_json_round_trip():
    result = RunResult(
        protocol="dapes", seed=7, parameters={"wifi_range": 60.0, "max_bitmaps": None},
        download_times={"a": 1.5}, incomplete_nodes=["b"], transmissions=12,
        transmissions_by_kind={"data": 9}, transmissions_by_protocol={"dapes": 12},
        collisions=1, losses=2, duration=100.0, events=345,
        node_loads={"a": {"memory_overhead_mb": 0.5}}, extras={"x": 1.0},
    )
    assert RunResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result


def test_sweep_result_json_round_trip_includes_trials():
    config = ExperimentConfig.tiny()
    sweep = run_experiment("fig9a", config, axes={"wifi_range": (80.0,)}, workers=1)
    restored = SweepResult.from_json(sweep.to_json())
    assert restored == sweep
    assert restored.rows() == sweep.rows()
    for point, restored_point in zip(sweep.points, restored.points):
        assert restored_point.trial_results == point.trial_results
        assert len(restored_point.trial_results) == config.trials


def test_cache_key_is_content_addressed():
    spec = get_experiment("fig9a")
    tiny, small = ExperimentConfig.tiny(), ExperimentConfig.small()
    key_a = sweep_cache_key(spec, spec.plan(tiny))
    assert key_a == sweep_cache_key(spec, spec.plan(tiny))
    assert key_a != sweep_cache_key(spec, spec.plan(small))
    assert key_a != sweep_cache_key(spec, spec.plan(tiny, axes={"wifi_range": (80.0,)}))


def test_interrupted_sweep_resumes_from_persisted_tasks(tmp_path, monkeypatch):
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=180.0)
    axes = {"wifi_range": (80.0,)}
    first = run_experiment("fig9a", config, axes=axes, workers=1, out_dir=tmp_path)
    task_files = list(tmp_path.glob("fig9a-*/task-*.json"))
    assert len(task_files) == 4 * 2
    assert (tmp_path / "fig9a.json").is_file()

    # Drop one completed task (simulating a kill mid-sweep), then forbid all
    # but exactly one re-execution: resume must only run the missing task.
    task_files[0].unlink()
    import repro.experiments.sweep as sweep_module

    real_execute, budget = sweep_module._execute_task, [1]

    def limited_execute(task):
        if budget[0] <= 0:
            raise AssertionError("resume re-ran a cached task")
        budget[0] -= 1
        return real_execute(task)

    monkeypatch.setattr(sweep_module, "_execute_task", limited_execute)
    resumed = run_experiment("fig9a", config, axes=axes, workers=1, out_dir=tmp_path)
    assert resumed == first
    assert budget[0] == 0


# --------------------------------------------------------------------- CLI
def test_cli_list_prints_registry(capsys):
    assert cli.main(["list"]) == 0
    output = capsys.readouterr().out
    for name in ("fig9a", "fig9gh", "fig10", "table1"):
        assert name in output


def test_cli_axis_parsing():
    axes = cli._parse_axis_overrides(["wifi_range=40,80.5", "max_bitmaps=1,none"])
    assert axes == {"wifi_range": (40, 80.5), "max_bitmaps": (1, None)}
    with pytest.raises(PlanError, match="--axis expects NAME=V1,V2"):
        cli._parse_axis_overrides(["wifi_range"])
    with pytest.raises(PlanError, match="--axis wifi_range given twice"):
        cli._parse_axis_overrides(["wifi_range=40", "wifi_range=80"])


def test_cli_run_persists_results(tmp_path, capsys):
    code = cli.main([
        "run", "fig9a", "--preset", "tiny", "--workers", "1",
        "--axis", "wifi_range=80", "--out", str(tmp_path), "--quiet",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 9a" in output
    persisted = SweepResult.from_json((tmp_path / "fig9a.json").read_text(encoding="utf-8"))
    reference = run_experiment(
        "fig9a", ExperimentConfig.tiny(), axes={"wifi_range": (80,)}, workers=1
    )
    assert persisted == reference


def test_cli_pool_and_serial_runs_share_one_task_cache(tmp_path, capsys):
    store = tmp_path / "store"
    command = [
        "run", "fig9a", "--preset", "tiny", "--trials", "1",
        "--axis", "wifi_range=80", "--store", str(store), "--quiet",
    ]
    assert cli.main(command + ["--workers", "2"]) == 0
    assert cli.main(command) == 0
    assert len(list((store / "tasks").iterdir())) == 1
    capsys.readouterr()
    assert cli.main(command + ["--dry-run"]) == 0
    listing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fig9a-")]
    assert len(listing) == 4
    assert all(line.endswith("[cached]") for line in listing)


def test_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "fig99", "--preset", "tiny"])
    assert exit_info.value.code == 2
    assert "unknown experiment 'fig99'; available: [" in capsys.readouterr().err


def test_cli_rejects_the_removed_array_backend_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "fig9a", "--preset", "tiny", "--array-backend", "numpy"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --array-backend" in capsys.readouterr().err


# ----------------------------------------------------- plan-time validation
# name -> (experiment, flags, what the one error line says after "error: ")
BAD_GRIDS = {
    "bad_axis_value": ("fig9a", ["--trials", "1", "--axis", "wifi_range=80,-5"], "fig9a point .*wifi_range must be positive"),
    "nan_axis_value": ("fig9a", ["--trials", "1", "--axis", "wifi_range=nan"], "fig9a point .*wifi_range must be finite"),
    "text_axis_value": ("fig9a", ["--trials", "1", "--axis", "wifi_range=abc"], "fig9a point .*wifi_range must be a number"),
    "text_scale_factor": (
        "fig9e", ["--trials", "1", "--axis", "num_files_factor=abc"], "fig9e point .*num_files_factor must be a number",
    ),
    "zero_trials": ("fig9a", ["--trials", "0", "--axis", "wifi_range=80"], "fig9a point .*trials must be at least 1"),
    # Naming errors: a typo in an experiment or axis name, or an axis given twice.
    "unknown_experiment": ("fig9z", ["--trials", "1"], "unknown experiment 'fig9z'; available: "),
    "axis_without_values": ("fig9a", ["--axis", "wifi_range"], "--axis expects NAME=V1,V2"),
    "unknown_axis": ("fig9a", ["--axis", "nosuchaxis=1"], "--axis nosuchaxis matches no axis"),
    "repeated_axis": (
        "fig9a", ["--axis", "wifi_range=40", "--axis", "wifi_range=80"], "--axis wifi_range given twice",
    ),
}


@pytest.mark.parametrize("mode", [[], ["--dry-run"]], ids=["run", "dry_run"])
@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_cli_refuses_an_invalid_grid_before_anything_runs(tmp_path, capsys, grid, mode):
    experiment, flags, reason = BAD_GRIDS[grid]
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", experiment, "--preset", "tiny", *flags, "--out", str(out_dir), *mode])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert re.match(f"repro-experiments: error: {reason}", captured.err)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "[   1/" not in captured.out and "task-0000" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_cli_submit_refuses_an_invalid_grid_without_a_coordinator(capsys, grid):
    experiment, flags, reason = BAD_GRIDS[grid]
    with pytest.raises(SystemExit) as exit_info:
        # Port 1 has no coordinator: reaching it would be a connection error.
        cli.main(["submit", experiment, "--preset", "tiny", *flags, "--port", "1"])
    assert exit_info.value.code == 2
    assert re.match(f"repro-experiments: error: {reason}", capsys.readouterr().err)


def test_plan_error_names_the_spec_the_point_and_the_reason():
    spec = get_experiment("fig9a")
    with pytest.raises(ValueError, match=r"fig9a point .*wifi_range=-5.*: wifi_range must be positive"):
        spec.plan(ExperimentConfig.tiny(), axes={"wifi_range": (80, -5)})
    with pytest.raises(ValueError, match="trials must be at least 1"):
        spec.task_count(ExperimentConfig.tiny().with_overrides(trials=0))


def test_suite_with_one_invalid_request_leaves_no_cache_directory(tmp_path):
    from repro.experiments import SweepRequest, run_suite

    spec = get_experiment("fig9a")
    good = SweepRequest(spec=spec, config=ExperimentConfig.tiny(), axes={"wifi_range": (80.0,)})
    bad = SweepRequest(spec=spec, config=ExperimentConfig.tiny(), axes={"wifi_range": (-5.0,)})
    with pytest.raises(ValueError, match="wifi_range must be positive"):
        run_suite([good, bad], workers=1, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ review fixes
def test_adhoc_spec_with_custom_trial_fn_runs_in_process():
    """Unregistered specs with bespoke trial hooks must use them, not the default."""
    from repro.experiments.metrics import RunResult

    calls = []

    def fake_trial(protocol, config, seed, parameters):
        calls.append((protocol, seed))
        return RunResult(protocol=protocol, seed=seed, parameters=dict(parameters),
                         download_times={"a": 1.0}, duration=1.0)

    spec = ExperimentSpec(
        name="_adhoc_custom_trial", title="ad-hoc", description="",
        variants=(Variant(label="only"),), trial_fn=fake_trial,
    )
    config = ExperimentConfig.tiny().with_overrides(trials=2)
    result = run_experiment(spec, config, workers=4)  # forced serial: not pool-safe
    assert len(calls) == 2
    assert result.points[0].trials == 2
    assert result.points[0].download_time == 1.0


def test_suite_with_duplicate_experiment_names_does_not_clobber_results(tmp_path):
    from repro.experiments import SweepRequest, run_suite

    spec = get_experiment("fig9a")
    tiny = ExperimentConfig.tiny()
    small_ish = ExperimentConfig.tiny().with_overrides(base_seed=99)
    axes = {"wifi_range": (80.0,)}
    run_suite(
        [
            SweepRequest(spec=spec, config=tiny, axes=axes),
            SweepRequest(spec=spec, config=small_ish, axes=axes),
        ],
        workers=1,
        out_dir=tmp_path,
    )
    aggregates = sorted(path.name for path in tmp_path.glob("fig9a-*.json"))
    assert len(aggregates) == 2  # one per request, keyed by plan hash


def test_cli_rejects_unknown_axis_names(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "fig9a", "--preset", "tiny", "--axis", "wifi_rage=40"])
    assert exit_info.value.code == 2
    assert "--axis wifi_rage matches no axis" in capsys.readouterr().err
