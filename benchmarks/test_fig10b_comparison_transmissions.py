"""Fig. 10b — transmissions (overhead): DAPES vs Bithoc vs Ekta."""

from conftest import run_sweep

from repro.experiments import ResultSet


def test_fig10b_comparison_transmissions(benchmark, bench_config, report):
    result = run_sweep(benchmark, "fig10", bench_config, axes={"wifi_range": (60.0,)})
    report(result)

    series = ResultSet.from_sweep(result).series("transmissions")
    dapes = sum(series["DAPES"]) / len(series["DAPES"])
    bithoc = sum(series["Bithoc"]) / len(series["Bithoc"])
    ekta = sum(series["Ekta"]) / len(series["Ekta"])
    # Paper claim (Fig. 10b): DAPES has 62-71 % lower overhead than Bithoc
    # and 50-59 % lower overhead than Ekta.  At reduced scale we require a
    # clear ordering: DAPES < Ekta and DAPES < Bithoc, with Bithoc the most
    # expensive of the three (proactive routing + flooding + TCP).
    assert dapes < ekta
    assert dapes < bithoc
    assert dapes <= bithoc * 0.6, "DAPES should cut Bithoc's overhead by a large margin"
