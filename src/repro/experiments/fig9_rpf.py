"""Fig. 9a / Fig. 9b — data-fetching strategy and collision mitigation trade-offs.

* ``fig9a`` (:data:`SPEC_FIG9A`): file-collection download time versus WiFi
  range for the four combinations of {same, random} starting packet and
  {encounter-based, local-neighborhood} RPF, with peers fetching the
  bitmaps of every peer in range before downloading data (the setting used
  for that figure).
* ``fig9b`` (:data:`SPEC_FIG9B`): number of transmissions versus WiFi range
  for both RPF flavours, with and without PEBA.

Both are registered :class:`ExperimentSpec`s; run them with
``run_experiment("fig9a")`` or ``python -m repro.experiments run fig9a``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

DEFAULT_WIFI_RANGES = (20.0, 40.0, 60.0, 80.0, 100.0)


def _dapes_variants(table: Sequence[Tuple[str, Dict[str, object]]]) -> Tuple[Variant, ...]:
    """Labelled DAPES variants whose parameters mirror their config overrides."""
    return tuple(
        Variant(
            label=label,
            overrides={f"dapes_{key}": value for key, value in overrides.items()},
            parameters=dict(overrides),
        )
        for label, overrides in table
    )


_RPF_VARIANTS = (
    ("Same packet, encounter-based RPF", {"rpf_strategy": "encounter", "random_start": False}),
    ("Random packet, encounter-based RPF", {"rpf_strategy": "encounter", "random_start": True}),
    ("Same packet, local neighborhood RPF", {"rpf_strategy": "local", "random_start": False}),
    ("Random packet, local neighborhood RPF", {"rpf_strategy": "local", "random_start": True}),
)

_PEBA_VARIANTS = (
    ("Encounter-based RPF (w/o PEBA)", {"rpf_strategy": "encounter", "peba_enabled": False}),
    ("Local neighborhood RPF (w/o PEBA)", {"rpf_strategy": "local", "peba_enabled": False}),
    ("Encounter-based RPF (PEBA)", {"rpf_strategy": "encounter", "peba_enabled": True}),
    ("Local neighborhood RPF (PEBA)", {"rpf_strategy": "local", "peba_enabled": True}),
)

SPEC_FIG9A = register_experiment(
    ExperimentSpec(
        name="fig9a",
        title="Fig. 9a — download time per RPF strategy",
        description="Peers fetch the bitmaps of all peers in range before downloading data.",
        artefacts=("Fig. 9a",),
        axes=(Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),),
        variants=_dapes_variants(_RPF_VARIANTS),
        overrides={"dapes_bitmap_exchange": "before", "dapes_max_bitmaps": None},
    )
)

SPEC_FIG9B = register_experiment(
    ExperimentSpec(
        name="fig9b",
        title="Fig. 9b — transmissions per RPF strategy, with and without PEBA",
        description="Number of packet transmissions needed to distribute the collection.",
        artefacts=("Fig. 9b",),
        axes=(Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),),
        variants=_dapes_variants(_PEBA_VARIANTS),
        overrides={"dapes_bitmap_exchange": "before", "dapes_max_bitmaps": None},
    )
)
