"""Fig. 9a — file-collection download time for the RPF strategy variants."""

from conftest import BENCH_WIFI_RANGES, run_sweep

from repro.experiments import ResultSet


def test_fig9a_rpf_download_time(benchmark, bench_config, report):
    result = run_sweep(benchmark, "fig9a", bench_config, axes={"wifi_range": BENCH_WIFI_RANGES})
    report(result)

    assert result.points, "the sweep must produce data points"
    # Every variant must actually distribute the collection.
    assert all(point.completion_ratio > 0.5 for point in result.points)
    # Paper claim (Fig. 9a): local-neighborhood RPF beats encounter-based RPF
    # on average across the sweep.
    series = ResultSet.from_sweep(result).series("download_time")
    local = [v for label, values in series.items() if "local" in label.lower() for v in values]
    encounter = [v for label, values in series.items() if "encounter" in label.lower() for v in values]
    assert sum(local) / len(local) <= sum(encounter) / len(encounter) * 1.15
