"""Fig. 9e — download time for a varying number of files per collection."""

from conftest import run_sweep


def test_fig9e_varying_number_of_files(benchmark, quick_config, report):
    result = run_sweep(
        benchmark, "fig9e", quick_config,
        axes={"wifi_range": (60.0,), "num_files_factor": (1, 3)},
    )
    report(result)

    assert result.points
    # Paper claim (Fig. 9e): the download time grows with the amount of data.
    by_files = sorted(result.points, key=lambda point: point.parameters["num_files"])
    assert by_files[0].download_time <= by_files[-1].download_time
