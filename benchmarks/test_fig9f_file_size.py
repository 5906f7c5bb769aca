"""Fig. 9f — download time for a varying file size."""

from conftest import run_sweep


def test_fig9f_varying_file_size(benchmark, quick_config, report):
    result = run_sweep(
        benchmark, "fig9f", quick_config,
        axes={"wifi_range": (60.0,), "file_size_factor": (1, 5)},
    )
    report(result)

    assert result.points
    # Paper claim (Fig. 9f): the download time grows with the file size.
    by_size = sorted(result.points, key=lambda point: point.parameters["file_size"])
    assert by_size[0].download_time <= by_size[-1].download_time
