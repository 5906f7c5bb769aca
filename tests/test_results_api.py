"""The first-class results API: ResultStore, ResultSet queries, report/diff."""

import json
import math

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import (
    ExperimentConfig,
    ResultSet,
    ResultStore,
    RunResult,
    SweepPoint,
    SweepResult,
    get_experiment,
    run_experiment,
)
from repro.experiments import report as report_mod
from repro.experiments.metrics import aggregate_trials, mean, percentile
from repro.experiments.report import (
    IDENTICAL,
    REGRESSED,
    WITHIN_TOLERANCE,
    classify,
    diff,
    to_csv,
    to_gnuplot,
    to_markdown,
    to_text,
)
from repro.experiments.store import SCHEMA_VERSION, StoreSchemaError, content_key


# ----------------------------------------------------------------- fixtures
def _synthetic_sweep(download=10.0, transmissions=100.0, with_trials=True):
    sweep = SweepResult(name="synthetic", description="synthetic sweep")
    for index, wifi_range in enumerate((40.0, 80.0)):
        trials = []
        if with_trials:
            trials = [
                RunResult(
                    protocol="dapes",
                    seed=seed,
                    download_times={"a": download + index + seed / 10.0},
                    transmissions=int(transmissions) + seed,
                    duration=100.0,
                    events=50 + seed,
                    extras={"hops": 2.0 + seed},
                )
                for seed in (1, 2)
            ]
        point = SweepPoint(
            label="A",
            parameters={"wifi_range": wifi_range},
            download_time=download + index,
            transmissions=transmissions + index,
            completion_ratio=1.0,
            trials=2,
            extras={"events": 100.0 + index},
        )
        point.trial_results = trials
        sweep.add_point(point)
    return sweep


@pytest.fixture(scope="module")
def fig9a_tiny():
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=240.0)
    return run_experiment("fig9a", config, axes={"wifi_range": (80.0,)}, workers=1)


# ======================================================================= store
def test_store_save_list_load_round_trip(tmp_path, fig9a_tiny):
    store = ResultStore(tmp_path)
    spec = get_experiment("fig9a")
    config = ExperimentConfig.tiny()
    record = store.save(fig9a_tiny, spec=spec, config=config, tags=("baseline",))
    assert record.key == content_key(fig9a_tiny)
    assert record.meta["schema"] == SCHEMA_VERSION
    assert record.meta["registries"]["topology"] == "quadrant"
    assert record.meta["protocols"] == ["dapes"]
    assert record.meta["points"] == len(fig9a_tiny.points)
    assert record.created  # ISO timestamp

    [listed] = store.list(spec="fig9a")
    assert listed.key == record.key
    assert listed.tags == ["baseline"]
    assert store.load(record) == fig9a_tiny
    assert store.load("fig9a") == fig9a_tiny  # bare spec name = latest
    assert store.load("fig9a@baseline") == fig9a_tiny
    assert store.load(f"fig9a@{record.key}") == fig9a_tiny
    assert store.load(record.key) == fig9a_tiny  # bare content key


def test_store_save_is_idempotent_and_merges_tags(tmp_path, fig9a_tiny):
    store = ResultStore(tmp_path)
    first = store.save(fig9a_tiny, spec="fig9a", tags=("a",))
    second = store.save(fig9a_tiny, spec="fig9a", tags=("b",))
    assert first.key == second.key
    assert second.created == first.created  # original timestamp wins
    [record] = store.list(spec="fig9a")
    assert record.tags == ["a", "b"]


def test_store_unknown_reference_raises(tmp_path, fig9a_tiny):
    store = ResultStore(tmp_path)
    store.save(fig9a_tiny, spec="fig9a")
    with pytest.raises(KeyError):
        store.resolve("fig9a@nope")
    with pytest.raises(KeyError):
        store.resolve("nonexistent")
    with pytest.raises(KeyError):
        store.latest(spec="fig10")


def test_store_rejects_unknown_schema_version(tmp_path, fig9a_tiny):
    store = ResultStore(tmp_path)
    record = store.save(fig9a_tiny, spec="fig9a")
    payload = json.loads(record.path.read_text(encoding="utf-8"))
    payload["meta"]["schema"] = SCHEMA_VERSION + 1
    record.path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreSchemaError, match="schema"):
        store.load(f"fig9a@{record.key}")


def test_store_gc_keeps_newest_and_tagged(tmp_path):
    store = ResultStore(tmp_path)
    records = []
    for index in range(4):
        sweep = _synthetic_sweep(download=10.0 + index, with_trials=False)
        tags = ("keep-me",) if index == 0 else ()
        records.append(store.save(sweep, spec="synthetic", tags=tags))
    # Distinct content → four runs stored.
    assert len(store.list(spec="synthetic")) == 4
    removed = store.gc(keep=1, spec="synthetic")
    survivors = {record.key for record in store.list(spec="synthetic")}
    # The tagged run survives regardless of age; newest 1 also survives.
    assert records[0].key in survivors
    assert len(survivors) == 4 - len(removed)
    assert all(not record.tags for record in removed)
    # Pruning tagged runs too only keeps the newest.
    store.gc(keep=1, spec="synthetic", keep_tagged=False)
    assert len(store.list(spec="synthetic")) == 1


def test_run_experiment_with_store_and_out_dir_together(tmp_path):
    """--out and --store compose: flat JSON dump plus content-addressed run."""
    config = ExperimentConfig.tiny().with_overrides(max_duration=180.0)
    out_dir = tmp_path / "out"
    result = run_experiment(
        "fig9a", config, axes={"wifi_range": (80.0,)}, workers=1,
        out_dir=out_dir, store=tmp_path / "store",
    )
    dumped = SweepResult.from_json((out_dir / "fig9a.json").read_text(encoding="utf-8"))
    assert dumped == result
    assert ResultStore(tmp_path / "store").load("fig9a") == result


def test_run_experiment_with_store_resumes_from_task_cache(tmp_path, monkeypatch):
    config = ExperimentConfig.tiny().with_overrides(trials=2, max_duration=180.0)
    axes = {"wifi_range": (80.0,)}
    first = run_experiment("fig9a", config, axes=axes, workers=1, store=tmp_path, tag="t1")
    import repro.experiments.sweep as sweep_module

    def forbidden(task):
        raise AssertionError("store-backed resume re-ran a cached task")

    monkeypatch.setattr(sweep_module, "_execute_task", forbidden)
    again = run_experiment("fig9a", config, axes=axes, workers=1, store=tmp_path, tag="t2")
    assert again == first
    store = ResultStore(tmp_path)
    [record] = store.list(spec="fig9a")
    assert record.tags == ["t1", "t2"]  # identical content, merged tags


# ======================================================================= query
def test_result_set_select_where_group_by(fig9a_tiny):
    results = ResultSet.from_sweep(fig9a_tiny)
    assert len(results) == 4
    assert results.select("download_time") == [p.download_time for p in fig9a_tiny.points]
    assert results.select("extras.events") == results.select("events")
    assert results.select("wifi_range") == [80.0] * 4  # parameters resolve too
    subset = results.where(rpf_strategy="local")
    assert len(subset) == 2
    assert results.where(label=fig9a_tiny.points[0].label).select("transmissions") == [
        fig9a_tiny.points[0].transmissions
    ]
    groups = results.group_by("rpf_strategy")
    assert set(groups) == {"encounter", "local"}
    assert all(len(group) == 2 for group in groups.values())


def test_result_set_series_groups_any_metric_by_label(fig9a_tiny):
    results = ResultSet.from_sweep(fig9a_tiny)
    for metric in ("download_time", "transmissions"):
        expected = {}
        for point in fig9a_tiny.points:
            expected.setdefault(point.label, []).append(getattr(point, metric))
        assert results.series(metric) == expected
    assert results.series("completion_ratio")
    assert results.series("extras.events")


def test_result_set_trial_level_metrics(fig9a_tiny):
    trials = ResultSet.from_sweep(fig9a_tiny).trials()
    assert len(trials) == sum(len(p.trial_results) for p in fig9a_tiny.points)
    assert all(value > 0 for value in trials.select("events"))
    assert trials.select("mean_download_time")
    assert trials.select("seed")
    # Trial rows inherit point parameters.
    assert set(trials.select("wifi_range")) == {80.0}
    # trials() on a trial-level set is a no-op.
    assert len(trials.trials()) == len(trials)


def test_result_set_profile_keys_selectable():
    config = ExperimentConfig.tiny().with_overrides(profile=True)
    result = run_experiment("fig9a", config, axes={"wifi_range": (80.0,)}, workers=1)
    trials = ResultSet.from_sweep(result).trials()
    key = next(k for k in trials.rows[0].metrics() if k.startswith("profile."))
    assert len(trials.select(key)) == len(trials)


def test_query_docstring_example_metrics_resolve_on_a_profiled_run():
    import re

    from repro.experiments import query

    names = re.findall(r'"(profile\.[\w.]+)"', query.__doc__)
    names += re.findall(r"``(profile\.[\w.]+)``", query.Row.value.__doc__)
    assert len(names) == 2
    config = ExperimentConfig.tiny().with_overrides(profile=True)
    result = run_experiment("fig9a", config, axes={"wifi_range": (80.0,)}, workers=1)
    trials = ResultSet.from_sweep(result).trials()
    for name in names:
        assert all(value > 0 for value in trials.select(name)), name


def test_result_set_aggregates_reuse_metrics_helpers():
    sweep = _synthetic_sweep()
    results = ResultSet.from_sweep(sweep)
    values = results.select("download_time")
    assert results.p90("download_time") == percentile(values, 90.0)
    assert results.percentile("download_time", 50.0) == percentile(values, 50.0)
    assert results.mean("download_time") == mean(values)
    slow = ResultSet.from_sweep(_synthetic_sweep(download=20.0))
    assert slow.ratio_to(results, "download_time") == pytest.approx(
        mean(slow.select("download_time")) / mean(values)
    )
    assert slow.ratio_to(results, "download_time", aggregate="p90") == pytest.approx(
        percentile(slow.select("download_time"), 90.0) / percentile(values, 90.0)
    )
    with pytest.raises(ValueError, match="unknown aggregate"):
        results.ratio_to(slow, "download_time", aggregate="median")


def test_result_set_pivot_and_unknown_metric():
    sweep = _synthetic_sweep()
    results = ResultSet.from_sweep(sweep)
    table = results.pivot("wifi_range")
    assert table == {"A": {40.0: 10.0, 80.0: 11.0}}
    with pytest.raises(KeyError, match="unknown metric"):
        results.select("bogus_metric")
    with pytest.raises(KeyError, match="unknown extras key"):
        results.select("extras.bogus")


# ====================================================================== report
def test_to_text_keeps_the_fixed_width_table_format(fig9a_tiny):
    rendered = to_text(fig9a_tiny)
    assert rendered.startswith(f"== {fig9a_tiny.name} ==")
    # Historical fixed-width layout: 18-char right-justified columns.
    header = rendered.splitlines()[2]
    assert " | " in header and header.split(" | ")[0] == f"{'completion_ratio':>18}"


def test_exporters_cover_every_registered_spec(fig9a_tiny):
    markdown = to_markdown(fig9a_tiny)
    assert markdown.startswith(f"## {fig9a_tiny.name}")
    assert markdown.count("|") > 10
    csv_text = to_csv(fig9a_tiny)
    assert csv_text.splitlines()[0].startswith("label,")
    assert len(csv_text.splitlines()) == len(fig9a_tiny.points) + 1
    gnuplot = to_gnuplot(fig9a_tiny, axis="wifi_range", metric="transmissions")
    lines = gnuplot.splitlines()
    assert lines[1].startswith("# wifi_range")
    assert len(lines) == 3  # comment, header, one axis value


def test_diff_identical_tolerance_edge_and_regressed():
    base = _synthetic_sweep(download=100.0)
    assert diff(base, _synthetic_sweep(download=100.0)).verdict == IDENTICAL

    # 100 vs 90 on the first point: relative delta = 10/100 = 0.1 exactly —
    # the tolerance boundary is inclusive.
    shifted = _synthetic_sweep(download=90.0)
    edge = diff(base, shifted, tolerance=0.1, trial_level=False)
    assert edge.verdict == WITHIN_TOLERANCE
    assert not edge.regressions
    tight = diff(base, shifted, tolerance=0.0999, trial_level=False)
    assert tight.verdict == REGRESSED
    assert any("download_time" in entry.path for entry in tight.regressions)


def test_diff_reaches_trial_level():
    base = _synthetic_sweep()
    other = _synthetic_sweep()
    other.points[0].trial_results[1].transmissions += 7
    report = diff(base, other)
    assert report.verdict == REGRESSED
    [entry] = report.regressions
    assert "trial_results[1].transmissions" in entry.path
    # Aggregate-only diff does not see it.
    assert diff(base, other, trial_level=False).verdict == IDENTICAL


def test_diff_detects_divergent_duplicate_points():
    """Extra points sharing (label, parameters) must not verdict identical."""
    base = _synthetic_sweep()
    doubled = _synthetic_sweep()
    doubled.add_point(SweepPoint("A", {"wifi_range": 40.0}, 99.0, 1.0, 0.1, 2))
    report = diff(base, doubled, trial_level=False)
    assert report.verdict == REGRESSED
    assert any("point_count" in entry.path for entry in report.regressions)


def test_diff_flags_missing_points_and_rows_payloads():
    base = _synthetic_sweep()
    shrunk = _synthetic_sweep()
    shrunk.points = shrunk.points[:1]
    report = diff(base, SweepResult(name="s", description="d", points=shrunk.points))
    assert report.verdict == REGRESSED
    # Row-based payload (the committed BENCH shape) diffs by plan order.
    bench_like = {"name": "bench", "points": base.rows()}
    assert diff(base, bench_like).verdict == IDENTICAL
    bench_like["points"][0]["transmissions"] += 1.0
    assert diff(base, bench_like).verdict == REGRESSED


def test_classify_handles_nan_and_type_mismatch():
    assert classify(float("nan"), float("nan")) == (IDENTICAL, 0.0)
    assert classify(1.0, "1.0")[0] == REGRESSED
    assert classify(None, None) == (IDENTICAL, 0.0)
    assert classify(1.0, 1.1, tolerance=0.2)[0] == WITHIN_TOLERANCE


# ==================================================================== strict JSON
def test_nan_serializes_as_null_and_round_trips():
    incomplete = RunResult(protocol="dapes", seed=1, extras={"x": float("nan")})
    assert math.isnan(incomplete.mean_download_time)
    point = aggregate_trials("empty", {}, [incomplete], q=90.0)
    assert math.isnan(point.download_time)
    sweep = SweepResult(name="nan-sweep", description="")
    point.trial_results = [incomplete]
    sweep.add_point(point)

    text = sweep.to_json()
    assert "NaN" not in text and "Infinity" not in text
    payload = json.loads(text)  # strictly valid JSON
    assert payload["points"][0]["download_time"] is None
    assert payload["points"][0]["trial_results"][0]["extras"]["x"] is None

    restored = SweepResult.from_json(text)
    assert math.isnan(restored.points[0].download_time)
    assert math.isnan(restored.points[0].trial_results[0].extras["x"])
    # as_dict boundaries are strict too (mean_download_time can be NaN).
    assert incomplete.as_dict()["mean_download_time"] is None
    assert json.loads(json.dumps(point.as_dict(), allow_nan=False))["download_time_s"] is None


# ====================================================================== CLI
def test_cli_run_with_store_then_report_diff_export(tmp_path, capsys):
    store_dir = tmp_path / "store"
    code = cli.main([
        "run", "fig9a", "--preset", "tiny", "--workers", "1",
        "--axis", "wifi_range=80", "--store", str(store_dir), "--tag", "ci", "--quiet",
    ])
    assert code == 0
    assert "stored under" in capsys.readouterr().out

    assert cli.main(["store", "list", "--store", str(store_dir)]) == 0
    listing = capsys.readouterr().out
    assert "fig9a" in listing and "ci" in listing

    report_path = tmp_path / "report.md"
    code = cli.main([
        "report", "fig9a@ci", "--store", str(store_dir),
        "--metric", "extras.events", "-o", str(report_path),
    ])
    assert code == 0
    report_text = report_path.read_text(encoding="utf-8")
    assert "extras.events" in report_text and "config hash" in report_text

    # Self-diff: identical, exit 0; store ref vs exported JSON file both work.
    assert cli.main(["diff", "fig9a@ci", "fig9a@latest", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "verdict: identical" in out

    assert cli.main([
        "export", "fig9a@ci", "--store", str(store_dir), "--format", "gnuplot",
        "--axis", "wifi_range", "--metric", "transmissions",
    ]) == 0
    assert capsys.readouterr().out.startswith("# Fig. 9a")

    assert cli.main([
        "export", "fig9a@ci", "--store", str(store_dir), "--format", "csv",
        "--metric", "mean_download_time", "--level", "trial",
    ]) == 0
    assert "mean_download_time" in capsys.readouterr().out

    assert cli.main(["store", "gc", "--store", str(store_dir), "--keep", "0"]) == 0
    assert "0 run(s) removed" in capsys.readouterr().out  # tagged run survives


def test_cli_diff_against_committed_bench_is_identical(tmp_path, capsys):
    """The CI smoke: a fresh run diffs clean against its own persisted rows."""
    config = ExperimentConfig.tiny().with_overrides(trials=1)
    result = run_experiment("fig9a", config, axes={"wifi_range": (80.0,)}, workers=1)
    bench_path = tmp_path / "BENCH_fake.json"
    bench_path.write_text(
        json.dumps({"name": result.name, "points": result.rows()}), encoding="utf-8"
    )
    store_dir = tmp_path / "store"
    ResultStore(store_dir).save(result, spec="fig9a")
    assert cli.main(["diff", "fig9a", str(bench_path), "--store", str(store_dir)]) == 0
    assert "identical" in capsys.readouterr().out


def test_cli_diff_exit_code_on_regression(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(_synthetic_sweep(download=100.0).to_json(), encoding="utf-8")
    b.write_text(_synthetic_sweep(download=50.0).to_json(), encoding="utf-8")
    assert cli.main(["diff", str(a), str(b), "--format", "md"]) == 1
    assert "regressed" in capsys.readouterr().out
    assert cli.main(["diff", str(a), str(b), "--tolerance", "0.5", "--no-trials"]) == 0


def test_cli_report_and_export_accept_bare_row_lists(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    rows_path.write_text(json.dumps(_synthetic_sweep().rows()), encoding="utf-8")
    assert cli.main(["report", str(rows_path)]) == 0
    assert "| label |" in capsys.readouterr().out
    assert cli.main(["export", str(rows_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("label,")


def test_label_is_selectable_as_a_metric(fig9a_tiny):
    results = ResultSet.from_sweep(fig9a_tiny)
    assert results.select("label") == [point.label for point in fig9a_tiny.points]
    assert "label" in results.metrics()


def test_cli_tag_requires_store():
    with pytest.raises(SystemExit, match="--tag requires --store"):
        cli.main(["run", "fig9a", "--preset", "tiny", "--tag", "x"])


def test_cli_report_missing_reference_fails_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="no stored run"):
        cli.main(["report", "fig9a", "--store", str(tmp_path)])
    with pytest.raises(SystemExit, match="not found"):
        cli.main(["report", str(tmp_path / "missing.json")])
