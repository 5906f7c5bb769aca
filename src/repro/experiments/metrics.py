"""Result containers and statistics helpers for the experiment harness.

:class:`RunResult` (one trial), :class:`SweepPoint` (one aggregated
parameter point) and :class:`SweepResult` (one whole experiment) all
round-trip through JSON (``to_dict``/``from_dict`` and
``SweepResult.to_json``/``from_json``), which is what the sweep scheduler's
per-task caching and the experiments CLI persist.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.profiling import combine_counter


def json_safe(value: object) -> object:
    """Map non-finite floats (NaN, ±Inf) to ``None`` — strict-JSON safe.

    ``json.dumps`` happily emits ``NaN``/``Infinity`` tokens, which are not
    JSON and break standard-conforming parsers.  Every ``to_dict`` boundary
    in this module passes numeric fields through this helper so persisted
    files stay strictly valid; serialization itself uses
    ``allow_nan=False`` as a backstop.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _number(value: object, default: float = float("nan")) -> object:
    """Inverse of :func:`json_safe` for numeric fields: ``null`` → NaN."""
    return default if value is None else value


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` with linear interpolation.

    The paper reports the 90th percentile of results collected over ten
    trials; this helper matches numpy's default ("linear") behaviour without
    requiring numpy at runtime.
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[int(rank)])
    weight = rank - lower
    return float(ordered[lower] * (1 - weight) + ordered[upper] * weight)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("cannot take the mean of no values")
    return sum(values) / len(values)


@dataclass
class RunResult:
    """Outcome of one simulation run (one trial, one parameter point)."""

    protocol: str
    seed: int
    parameters: Dict[str, object] = field(default_factory=dict)
    download_times: Dict[str, float] = field(default_factory=dict)
    incomplete_nodes: List[str] = field(default_factory=list)
    transmissions: int = 0
    transmissions_by_kind: Dict[str, int] = field(default_factory=dict)
    transmissions_by_protocol: Dict[str, int] = field(default_factory=dict)
    collisions: int = 0
    losses: int = 0
    duration: float = 0.0
    events: int = 0
    node_loads: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    # Optional performance profile (see repro.profiling).  Excluded from
    # equality: it carries wall-clock measurements, which vary run to run,
    # while every other field is deterministic.
    profile: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def mean_download_time(self) -> float:
        """Average download time across downloaders (incomplete count as the run duration)."""
        times = list(self.download_times.values())
        times.extend(self.duration for _ in self.incomplete_nodes)
        return mean(times) if times else float("nan")

    @property
    def completion_ratio(self) -> float:
        total = len(self.download_times) + len(self.incomplete_nodes)
        return len(self.download_times) / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "parameters": dict(self.parameters),
            "mean_download_time": json_safe(self.mean_download_time),
            "completion_ratio": self.completion_ratio,
            "transmissions": self.transmissions,
            "collisions": self.collisions,
            "losses": self.losses,
            "duration": json_safe(self.duration),
        }

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict carrying *every* field (lossless round-trip).

        The ``profile`` key is only emitted when a profile was collected, so
        unprofiled results serialize exactly as they did before profiling
        existed (byte-stable persisted artifacts and cache entries).
        """
        payload = {
            "protocol": self.protocol,
            "seed": self.seed,
            "parameters": dict(self.parameters),
            "download_times": dict(self.download_times),
            "incomplete_nodes": list(self.incomplete_nodes),
            "transmissions": self.transmissions,
            "transmissions_by_kind": dict(self.transmissions_by_kind),
            "transmissions_by_protocol": dict(self.transmissions_by_protocol),
            "collisions": self.collisions,
            "losses": self.losses,
            "duration": json_safe(self.duration),
            "events": self.events,
            "node_loads": {
                node: {key: json_safe(value) for key, value in loads.items()}
                for node, loads in self.node_loads.items()
            },
            "extras": {key: json_safe(value) for key, value in self.extras.items()},
        }
        if self.profile:
            payload["profile"] = {key: json_safe(value) for key, value in self.profile.items()}
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        return cls(
            protocol=data["protocol"],
            seed=data["seed"],
            parameters=dict(data.get("parameters", {})),
            download_times=dict(data.get("download_times", {})),
            incomplete_nodes=list(data.get("incomplete_nodes", [])),
            transmissions=data.get("transmissions", 0),
            transmissions_by_kind=dict(data.get("transmissions_by_kind", {})),
            transmissions_by_protocol=dict(data.get("transmissions_by_protocol", {})),
            collisions=data.get("collisions", 0),
            losses=data.get("losses", 0),
            duration=_number(data.get("duration", 0.0)),
            events=data.get("events", 0),
            node_loads={
                node: {key: _number(value) for key, value in loads.items()}
                for node, loads in data.get("node_loads", {}).items()
            },
            extras={key: _number(value) for key, value in data.get("extras", {}).items()},
            profile=dict(data.get("profile", {})),
        )


def _freeze_parameters(parameters: Dict[str, object]) -> Optional[frozenset]:
    """Hashable signature of a parameter dict, or ``None`` if unhashable."""
    try:
        return frozenset(parameters.items())
    except TypeError:
        return None


@dataclass
class SweepPoint:
    """Aggregated result at one parameter point (over all trials)."""

    label: str
    parameters: Dict[str, object]
    download_time: float
    transmissions: float
    completion_ratio: float
    trials: int
    extras: Dict[str, float] = field(default_factory=dict)
    # Per-trial raw results; populated by the sweep scheduler and carried
    # through JSON persistence, but excluded from equality so aggregates
    # compare identically whether or not the raw trials travelled along.
    trial_results: List[RunResult] = field(
        default_factory=list, compare=False, repr=False
    )

    def as_dict(self) -> Dict[str, object]:
        row = {
            "label": self.label,
            "download_time_s": json_safe(round(self.download_time, 2)),
            "transmissions": json_safe(round(self.transmissions, 1)),
            "completion_ratio": json_safe(round(self.completion_ratio, 3)),
            "trials": self.trials,
        }
        row.update({key: json_safe(round(value, 3)) for key, value in self.extras.items()})
        row.update(self.parameters)
        return row

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict (lossless, including per-trial results)."""
        return {
            "label": self.label,
            "parameters": dict(self.parameters),
            "download_time": json_safe(self.download_time),
            "transmissions": json_safe(self.transmissions),
            "completion_ratio": json_safe(self.completion_ratio),
            "trials": self.trials,
            "extras": {key: json_safe(value) for key, value in self.extras.items()},
            "trial_results": [result.to_dict() for result in self.trial_results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepPoint":
        return cls(
            label=data["label"],
            parameters=dict(data.get("parameters", {})),
            download_time=_number(data["download_time"]),
            transmissions=_number(data["transmissions"]),
            completion_ratio=_number(data["completion_ratio"]),
            trials=data["trials"],
            extras={key: _number(value) for key, value in data.get("extras", {}).items()},
            trial_results=[
                RunResult.from_dict(result)
                for result in data.get("trial_results", [])
            ],
        )


@dataclass
class SweepResult:
    """A full experiment: a list of aggregated points (one per series/parameter)."""

    name: str
    description: str
    points: List[SweepPoint] = field(default_factory=list)
    # Lookup indexes maintained by add_point (see point()).
    _by_label: Dict[str, List[SweepPoint]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _exact: Dict[Tuple[str, frozenset], SweepPoint] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        existing, self.points = self.points, []
        for point in existing:
            self.add_point(point)

    def add_point(self, point: SweepPoint) -> None:
        self.points.append(point)
        self._by_label.setdefault(point.label, []).append(point)
        signature = _freeze_parameters(point.parameters)
        if signature is not None:
            self._exact.setdefault((point.label, signature), point)

    def rows(self) -> List[Dict[str, object]]:
        """Rows in the same structure the paper's figures/tables plot."""
        return [point.as_dict() for point in self.points]

    def point(self, label: str, **parameters) -> Optional[SweepPoint]:
        """Find a specific point by label and parameter values.

        Full-parameter lookups hit the ``(label, frozen parameters)`` index
        built by :meth:`add_point` in O(1); partial-parameter lookups scan
        only the points sharing ``label`` (first match in insertion order,
        like the historical linear scan).
        """
        signature = _freeze_parameters(parameters) if parameters else None
        if signature is not None:
            exact = self._exact.get((label, signature))
            if exact is not None:
                return exact
        for candidate in self._by_label.get(label, []):
            if all(candidate.parameters.get(key) == value for key, value in parameters.items()):
                return candidate
        return None

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepResult":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            points=[SweepPoint.from_dict(point) for point in data.get("points", [])],
        )

    def to_json(self, indent: int = 2) -> str:
        """Serialize the whole sweep — per-trial :class:`RunResult`s included.

        Strict JSON: non-finite floats were mapped to ``null`` at the
        ``to_dict`` boundaries, and ``allow_nan=False`` guarantees no
        invalid ``NaN``/``Infinity`` token can ever reach a persisted file.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))


def aggregate_trials(
    label: str,
    parameters: Dict[str, object],
    results: Sequence[RunResult],
    q: float = 90.0,
) -> SweepPoint:
    """Aggregate per-trial results into one sweep point (90th percentile by default)."""
    if not results:
        raise ValueError("no trial results to aggregate")
    download = percentile([result.mean_download_time for result in results], q)
    transmissions = percentile([float(result.transmissions) for result in results], q)
    completion = mean([result.completion_ratio for result in results])
    extras: Dict[str, float] = {}
    total_events = sum(result.events for result in results)
    if total_events:
        extras["events"] = float(total_events)
    # Churn, fault and recovery counters (present only when the subsystem
    # was active, so zero-churn, zero-fault aggregates stay byte-identical)
    # combine by the rule merged profiles use too.
    prefixes = ("churn.", "faults.", "recovery.")
    managed = {key for result in results for key in result.extras if key.startswith(prefixes)}
    for key in sorted(managed):
        values = [result.extras[key] for result in results if key in result.extras]
        extras[key] = combine_counter(key, values)
    return SweepPoint(
        label=label,
        parameters=dict(parameters),
        download_time=download,
        transmissions=transmissions,
        completion_ratio=completion,
        trials=len(results),
        extras=extras,
    )
