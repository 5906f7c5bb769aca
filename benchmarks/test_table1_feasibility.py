"""Table I — the real-world feasibility study scenarios."""

from conftest import run_sweep

from repro.experiments import ExperimentConfig


def test_table1_feasibility_study(benchmark, report):
    config = ExperimentConfig.small().with_overrides(
        trials=1, max_duration=400.0, base_seed=7
    )
    result = run_sweep(benchmark, "table1", config)
    report(result)

    rows = {point.parameters["scenario"]: point for point in result.points}
    assert set(rows) == {1, 2, 3}
    assert all(point.completion_ratio == 1.0 for point in rows.values()), "every scenario must finish"
    # Paper claims (Table I): scenario 1 (carrier) needs the most time and
    # transmissions; scenario 3 (moving nodes, multi-hop) needs the least of
    # both.
    assert rows[1].download_time >= rows[2].download_time >= rows[3].download_time
    assert rows[1].transmissions >= rows[3].transmissions
