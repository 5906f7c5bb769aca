"""Fig. 10a / Fig. 10b — DAPES versus the IP-based baselines.

One registered spec (``fig10``, aliases ``fig10a`` / ``fig10b``) produces
both figures: the file-collection download time (Fig. 10a) and the number
of transmissions (Fig. 10b) of DAPES, Bithoc and Ekta over the same
topology and workload.

The paper's headline numbers, which EXPERIMENTS.md tracks against this
harness: DAPES achieves 15-27 % / 19-33 % lower download time and 62-71 % /
50-59 % lower overhead than Bithoc / Ekta respectively — quantified by
:func:`improvements`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.metrics import SweepResult
from repro.experiments.spec import Axis, ExperimentSpec, Variant, register_experiment

DEFAULT_WIFI_RANGES = (20.0, 40.0, 60.0, 80.0, 100.0)
DEFAULT_PROTOCOLS = ("dapes", "bithoc", "ekta")

PROTOCOL_LABELS = {"dapes": "DAPES", "bithoc": "Bithoc", "ekta": "Ekta"}


def protocol_variants(protocols: Sequence[str]) -> Tuple[Variant, ...]:
    return tuple(
        Variant(
            label=PROTOCOL_LABELS.get(protocol, protocol),
            protocol=protocol,
            parameters={"protocol": protocol},
        )
        for protocol in protocols
    )


SPEC_FIG10 = register_experiment(
    ExperimentSpec(
        name="fig10",
        title="Fig. 10a/10b — comparison to IP-based solutions",
        description=(
            "download_time_s reproduces Fig. 10a; transmissions reproduces Fig. 10b."
        ),
        artefacts=("Fig. 10a", "Fig. 10b"),
        aliases=("fig10a", "fig10b"),
        axes=(Axis(name="wifi_range", values=DEFAULT_WIFI_RANGES, config_key="wifi_range"),),
        variants=protocol_variants(DEFAULT_PROTOCOLS),
    )
)


def improvements(result: SweepResult, metric: str = "download_time") -> Dict[str, List[float]]:
    """Per-range relative improvement of DAPES over each baseline.

    Returns, for every baseline label, the list (one entry per WiFi range)
    of ``1 - dapes/baseline`` — the quantity the paper reports as "X %
    lower download times / overheads".
    """
    by_label: Dict[str, Dict[float, float]] = {}
    for point in result.points:
        wifi_range = point.parameters.get("wifi_range")
        value = point.download_time if metric == "download_time" else point.transmissions
        by_label.setdefault(point.label, {})[wifi_range] = value
    dapes = by_label.get(PROTOCOL_LABELS["dapes"], {})
    relative: Dict[str, List[float]] = {}
    for label, values in by_label.items():
        if label == PROTOCOL_LABELS["dapes"]:
            continue
        shared_ranges = sorted(set(values) & set(dapes))
        relative[label] = [
            1.0 - (dapes[wifi_range] / values[wifi_range]) if values[wifi_range] else 0.0
            for wifi_range in shared_ranges
        ]
    return relative
