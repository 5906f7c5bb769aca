"""Fig. 9g / Fig. 9h — the impact of multi-hop forwarding.

One registered spec (``fig9gh``, aliases ``fig9g`` / ``fig9h``) produces
both figures: the download time (Fig. 9g) and the number of transmissions
(Fig. 9h) when intermediate nodes (pure forwarders and DAPES nodes with no
knowledge about the requested data) forward 0 % (single-hop), 20 %, 40 % or
60 % of received Interests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

DEFAULT_WIFI_RANGES = (20.0, 40.0, 60.0, 80.0, 100.0)
DEFAULT_PROBABILITIES = (None, 0.2, 0.4, 0.6)  # None == single-hop


def _probability_label(probability) -> str:
    if probability is None:
        return "Single-hop"
    return f"Multi-hop, forwarding probability={int(probability * 100)}%"


def probability_variants(
    probabilities: Sequence[Optional[float]],
) -> Tuple[Variant, ...]:
    variants = []
    for probability in probabilities:
        if probability is None:
            overrides = {"dapes_multi_hop": False, "dapes_forwarding_probability": 0.0}
        else:
            overrides = {"dapes_multi_hop": True, "dapes_forwarding_probability": probability}
        variants.append(
            Variant(
                label=_probability_label(probability),
                overrides=overrides,
                parameters={"forwarding_probability": probability},
            )
        )
    return tuple(variants)


SPEC_FIG9GH = register_experiment(
    ExperimentSpec(
        name="fig9gh",
        title="Fig. 9g/9h — impact of multi-hop forwarding probability",
        description=(
            "download_time_s reproduces Fig. 9g; transmissions reproduces Fig. 9h "
            "for the same sweep."
        ),
        artefacts=("Fig. 9g", "Fig. 9h"),
        aliases=("fig9g", "fig9h"),
        axes=(Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),),
        variants=probability_variants(DEFAULT_PROBABILITIES),
    )
)
