"""Fig. 9c — download time when bitmaps are exchanged before data download."""

from conftest import BENCH_WIFI_RANGES, run_sweep

from repro.experiments.fig9_bitmaps import SPEC_FIG9C, budget_variants


def test_fig9c_bitmaps_before_data(benchmark, bench_config, report):
    spec = SPEC_FIG9C.with_variants(budget_variants((1, 2, 4, None)))
    result = run_sweep(benchmark, spec, bench_config, axes={"wifi_range": BENCH_WIFI_RANGES})
    report(result)

    assert result.points
    labels = {point.label for point in result.points}
    assert "1 bitmap" in labels and "All bitmaps" in labels
    assert all(point.completion_ratio > 0.5 for point in result.points)
