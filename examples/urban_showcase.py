#!/usr/bin/env python3
"""Obstacle-aware urban scenarios: the pluggable propagation layer at work.

The ``urban_grid`` topology builds a Manhattan city — square blocks
separated by streets — and emits the buildings as an ``Environment``.
Mobile nodes random-walk the street graph; the ``obstacle`` propagation
model ray-tests every radio link against the buildings, so two nodes one
block apart cannot talk through a wall even when they are geometrically in
range.  This example runs the same workload, on the same seed, under the
paper's open-field ``unit_disk`` physics and under ``obstacle`` occlusion
at rising city density, then prints the resulting download-time gap plus
the occlusion-cache profile.

Run it with::

    python examples/urban_showcase.py
"""

from repro.experiments import ExperimentConfig, get_topology
from repro.experiments.sweep import run_experiment
from repro.profiling import merge_profiles
from repro.wireless import available_propagation_models


def main() -> None:
    config = ExperimentConfig.tiny().with_overrides(
        trials=1, max_duration=180.0, profile=True
    )
    topology = get_topology("urban_grid")
    environment = topology.build_environment(config)
    lines, street_width = topology.geometry(config)

    print(f"registered propagation models: {', '.join(available_propagation_models())}")
    print(
        f"urban grid: {topology.BLOCKS}x{topology.BLOCKS} blocks, "
        f"{len(lines)} streets per direction ({street_width:.1f} m wide), "
        f"{environment.describe()}"
    )
    print()

    densities = (0.0, 0.5, 1.0)
    result = run_experiment("urban", config, axes={"obstacle_density": densities})

    print(f"{'density':>8} | {'variant':>18} | {'download time':>13} | {'transmissions':>13}")
    print("-" * 64)
    for point in result.points:
        print(
            f"{point.parameters['obstacle_density']:>8} | {point.label:>18} "
            f"| {point.download_time:>12.1f}s | {point.transmissions:>13.0f}"
        )

    profiles = [
        trial.profile
        for point in result.points
        for trial in point.trial_results
        if trial.profile and trial.profile.get("propagation.occlusion_checks")
    ]
    if profiles:
        merged = merge_profiles(profiles)
        checks = merged.get("propagation.occlusion_checks", 0)
        links = merged.get("wireless.link_evaluations", 0)
        print()
        print(
            f"occlusion work across obstacle runs: {checks:,.0f} ray tests "
            f"for {links:,.0f} link evaluations"
        )

    print()
    print("At density 0 both physics agree exactly; as blocks fill in, the")
    print("open-field unit disk increasingly over-estimates delivery — walls")
    print("turn one dense cell into street-level partitions bridged only at")
    print("intersections and by nodes carrying data around corners.")


if __name__ == "__main__":
    main()
