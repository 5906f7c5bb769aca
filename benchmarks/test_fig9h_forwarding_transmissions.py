"""Fig. 9h — transmissions for single-hop vs multi-hop forwarding probabilities."""

from conftest import run_sweep

from repro.experiments.fig9_multihop import SPEC_FIG9GH, probability_variants


def test_fig9h_forwarding_probability_transmissions(benchmark, bench_config, report):
    spec = SPEC_FIG9GH.with_variants(probability_variants((None, 0.2, 0.6)))
    result = run_sweep(benchmark, spec, bench_config, axes={"wifi_range": (60.0,)})
    report(result)

    assert result.points
    # Paper claim (Fig. 9h): forwarding more Interests increases the overhead.
    single = [p.transmissions for p in result.points if p.label == "Single-hop"]
    heavy = [p.transmissions for p in result.points if "60%" in p.label]
    assert max(heavy) >= min(single)
