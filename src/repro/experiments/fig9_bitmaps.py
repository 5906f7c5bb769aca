"""Fig. 9c / Fig. 9d — how many advertisements to exchange, and when.

* ``fig9c`` (:data:`SPEC_FIG9C`): peers first exchange a fixed number of
  bitmaps (1-4, or every peer in range) and only then start downloading
  data.
* ``fig9d`` (:data:`SPEC_FIG9D`): the same bitmap budgets, but bitmap
  exchanges are interleaved with data downloading — the setting the paper
  recommends (16-23 % shorter downloads).

Both are registered :class:`ExperimentSpec`s.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

DEFAULT_WIFI_RANGES = (20.0, 40.0, 60.0, 80.0, 100.0)
DEFAULT_BITMAP_BUDGETS = (1, 2, 3, 4, None)  # None == "all bitmaps"


def _budget_label(budget) -> str:
    if budget is None:
        return "All bitmaps"
    return f"{budget} bitmap" + ("s" if budget != 1 else "")


def budget_variants(budgets: Sequence[Optional[int]]) -> Tuple[Variant, ...]:
    return tuple(
        Variant(
            label=_budget_label(budget),
            overrides={"dapes_max_bitmaps": budget},
            parameters={"max_bitmaps": budget},
        )
        for budget in budgets
    )


SPEC_FIG9C = register_experiment(
    ExperimentSpec(
        name="fig9c",
        title="Fig. 9c — download time vs number of exchanged bitmaps",
        description="Bitmaps are exchanged before any data is downloaded.",
        artefacts=("Fig. 9c",),
        axes=(Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),),
        variants=budget_variants(DEFAULT_BITMAP_BUDGETS),
        overrides={"dapes_bitmap_exchange": "before"},
    )
)

SPEC_FIG9D = register_experiment(
    ExperimentSpec(
        name="fig9d",
        title="Fig. 9d — download time vs number of exchanged bitmaps",
        description="Bitmap exchanges are interleaved with data downloading.",
        artefacts=("Fig. 9d",),
        axes=(Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),),
        variants=budget_variants(DEFAULT_BITMAP_BUDGETS),
        overrides={"dapes_bitmap_exchange": "interleaved"},
    )
)
