"""Fig. 9d — download time when bitmap exchanges are interleaved with data."""

from conftest import BENCH_WIFI_RANGES, run_sweep

from repro.experiments.fig9_bitmaps import SPEC_FIG9C, SPEC_FIG9D, budget_variants


def test_fig9d_bitmaps_interleaved(benchmark, bench_config, report):
    spec = SPEC_FIG9D.with_variants(budget_variants((1, 2, 4, None)))
    result = run_sweep(benchmark, spec, bench_config, axes={"wifi_range": BENCH_WIFI_RANGES})
    report(result)

    assert result.points
    assert all(point.completion_ratio > 0.5 for point in result.points)


def test_fig9d_interleaving_beats_bitmaps_first(benchmark, quick_config):
    """Paper claim: interleaved exchange yields 16-23 % shorter downloads.

    At reduced scale we require that interleaving is not slower on average
    than exchanging every bitmap up front.
    """
    from repro.experiments import run_experiment, to_text

    axes = {"wifi_range": (60.0,)}
    interleaved_spec = SPEC_FIG9D.with_variants(budget_variants((None,)))
    before_spec = SPEC_FIG9C.with_variants(budget_variants((None,)))

    def _run_both():
        return (
            run_experiment(interleaved_spec, quick_config, axes=axes),
            run_experiment(before_spec, quick_config, axes=axes),
        )

    result_interleaved, result_before = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    # Not archived via report(): these single-budget runs would overwrite the
    # full Fig. 9c / Fig. 9d sweeps recorded by the tests above.
    print(to_text(result_interleaved))
    print(to_text(result_before))
    mean_interleaved = sum(p.download_time for p in result_interleaved.points) / len(result_interleaved.points)
    mean_before = sum(p.download_time for p in result_before.points) / len(result_before.points)
    assert mean_interleaved <= mean_before * 1.15
