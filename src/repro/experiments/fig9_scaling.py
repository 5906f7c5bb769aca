"""Fig. 9e / Fig. 9f — scaling the collection.

* ``fig9e`` (:data:`SPEC_FIG9E`): download time for a varying number of
  files per collection (each file of the base size).
* ``fig9f`` (:data:`SPEC_FIG9F`): download time for a varying file size
  (the collection keeps its base number of files).

At paper scale the sweeps are 10-70 files of 1 MB, and 1-15 MB files; the
specs sweep *factors* over the preset's base workload (``Axis.scale_by``),
so reduced-scale presets keep the same ratios and the curves keep their
shape (EXPERIMENTS.md documents the scaling).
"""

from __future__ import annotations

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

DEFAULT_WIFI_RANGES = (20.0, 40.0, 60.0, 80.0, 100.0)
# Multipliers over the base workload, mirroring 10/30/50/70 files and 1/5/10/15 MB.
DEFAULT_FILE_COUNT_FACTORS = (1, 3, 5, 7)
DEFAULT_FILE_SIZE_FACTORS = (1, 5, 10, 15)

SPEC_FIG9E = register_experiment(
    ExperimentSpec(
        name="fig9e",
        title="Fig. 9e — download time vs number of files",
        description="Each file keeps the base size; the number of files grows.",
        artefacts=("Fig. 9e",),
        axes=(
            Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),
            Axis(name="num_files_factor", values=DEFAULT_FILE_COUNT_FACTORS, scale_by="num_files"),
        ),
        variants=(Variant(label="Number of files={num_files}"),),
    )
)

SPEC_FIG9F = register_experiment(
    ExperimentSpec(
        name="fig9f",
        title="Fig. 9f — download time vs file size",
        description="The collection keeps the base number of files; each file grows.",
        artefacts=("Fig. 9f",),
        axes=(
            Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),
            Axis(name="file_size_factor", values=DEFAULT_FILE_SIZE_FACTORS, scale_by="file_size"),
        ),
        variants=(Variant(label="File size factor={file_size_factor}x"),),
    )
)
