"""Fig. 9b — transmissions for both RPF flavours, with and without PEBA."""

from conftest import BENCH_WIFI_RANGES, run_sweep

from repro.experiments import ResultSet


def test_fig9b_peba_transmissions(benchmark, bench_config, report):
    result = run_sweep(benchmark, "fig9b", bench_config, axes={"wifi_range": BENCH_WIFI_RANGES})
    report(result)

    assert result.points
    assert all(point.transmissions > 0 for point in result.points)
    # Paper claim (Fig. 9b): PEBA reduces the number of transmissions
    # (22-28 % in the paper); at reduced scale we only require that enabling
    # PEBA does not increase the overhead on average.
    series = ResultSet.from_sweep(result).series("transmissions")
    with_peba = [v for label, values in series.items() if "(PEBA)" in label for v in values]
    without_peba = [v for label, values in series.items() if "w/o PEBA" in label for v in values]
    assert sum(with_peba) / len(with_peba) <= sum(without_peba) / len(without_peba) * 1.10
