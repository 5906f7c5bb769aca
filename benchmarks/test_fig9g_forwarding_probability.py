"""Fig. 9g — download time for single-hop vs multi-hop forwarding probabilities."""

from conftest import run_sweep

from repro.experiments.fig9_multihop import SPEC_FIG9GH, probability_variants


def test_fig9g_forwarding_probability_download_time(benchmark, bench_config, report):
    spec = SPEC_FIG9GH.with_variants(probability_variants((None, 0.2, 0.4)))
    result = run_sweep(benchmark, spec, bench_config, axes={"wifi_range": (60.0,)})
    report(result)

    assert result.points
    labels = {point.label for point in result.points}
    assert "Single-hop" in labels
    assert any("20%" in label for label in labels)
    # Paper claim (Fig. 9g): multi-hop forwarding reduces the download time
    # compared to the single-hop design (12-23 % in the paper).
    single = [p.download_time for p in result.points if p.label == "Single-hop"]
    multi = [p.download_time for p in result.points if p.label != "Single-hop"]
    assert min(multi) <= max(single) * 1.10
