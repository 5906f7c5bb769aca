"""Typed metric queries over sweep results: the :class:`ResultSet` API.

A :class:`ResultSet` is an immutable, chainable view over result rows at
one of two levels:

* **point level** (the default) — one row per aggregated
  :class:`~repro.experiments.metrics.SweepPoint`;
* **trial level** (via :meth:`ResultSet.trials`) — one row per raw
  :class:`~repro.experiments.metrics.RunResult`, parameters inherited from
  its point.

Every scalar a row carries is selectable by name through one uniform
resolver: dataclass fields (``download_time``, ``transmissions``,
``collisions`` …), derived properties (``mean_download_time``,
``completion_ratio``), ``extras`` and ``profile`` entries (bare keys or the
explicit ``extras.<key>`` / ``profile.<key>`` forms) and recorded sweep
parameters (``wifi_range`` …).

Verbs compose left to right::

    rs = ResultSet.from_sweep(run_experiment("fig9a"))
    rs.where(wifi_range=40.0).select("download_time")
    rs.group_by("label")                     # {label: ResultSet}
    rs.pivot("wifi_range")                   # {label: {40.0: value, ...}}
    rs.p90("transmissions")                  # reuses metrics.percentile
    rs.ratio_to(baseline, "download_time")   # e.g. "1.4x faster"
    rs.trials().select("profile.wall_clock_s")

Aggregate verbs reuse :func:`repro.experiments.metrics.percentile` and
:func:`~repro.experiments.metrics.mean`, so a query reports exactly what
the paper's aggregation pipeline would.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.experiments.metrics import (
    RunResult,
    SweepPoint,
    SweepResult,
    mean,
    percentile,
)

#: Scalar SweepPoint attributes selectable at point level.
POINT_FIELDS: Tuple[str, ...] = (
    "download_time",
    "transmissions",
    "completion_ratio",
    "trials",
)

#: Scalar RunResult attributes (fields and derived properties) selectable
#: at trial level.
TRIAL_FIELDS: Tuple[str, ...] = (
    "mean_download_time",
    "completion_ratio",
    "transmissions",
    "collisions",
    "losses",
    "duration",
    "events",
    "seed",
)


class Row:
    """One queryable result row: a label, parameters, and scalar metrics."""

    __slots__ = ("label", "parameters", "_record", "_fields", "_maps")

    def __init__(
        self,
        label: str,
        parameters: Mapping[str, object],
        record: object,
        fields: Sequence[str],
        maps: Mapping[str, Mapping[str, float]],
    ):
        self.label = label
        self.parameters = parameters
        self._record = record
        self._fields = fields
        self._maps = maps

    @classmethod
    def from_point(cls, point: SweepPoint) -> "Row":
        return cls(
            point.label, point.parameters, point, POINT_FIELDS, {"extras": point.extras}
        )

    @classmethod
    def from_trial(cls, point: SweepPoint, trial: RunResult) -> "Row":
        parameters = {**point.parameters, **trial.parameters}
        return cls(
            point.label,
            parameters,
            trial,
            TRIAL_FIELDS,
            {"extras": trial.extras, "profile": trial.profile},
        )

    # -------------------------------------------------------------- metrics
    def value(self, metric: str) -> float:
        """Resolve ``metric`` against this row, or raise ``KeyError``.

        Resolution order: dataclass fields/properties, then ``extras`` (and
        ``profile`` for trial rows) by bare key, then recorded parameters.
        Qualified names (``extras.events``, ``profile.engine.events``) address
        one map explicitly and win over any bare-name collision.
        """
        if metric == "label":
            return self.label
        namespace, _, key = metric.partition(".")
        if key and namespace in self._maps:
            mapping = self._maps[namespace]
            if key in mapping:
                return mapping[key]
            raise KeyError(
                f"unknown {namespace} key {key!r}; available: {sorted(mapping)}"
            )
        if metric in self._fields:
            return getattr(self._record, metric)
        for mapping in self._maps.values():
            if metric in mapping:
                return mapping[metric]
        if metric in self.parameters:
            return self.parameters[metric]
        raise KeyError(
            f"unknown metric {metric!r}; available: {sorted(self.metrics())}"
        )

    def metrics(self) -> List[str]:
        """Every metric name this row can resolve."""
        names = ["label", *self._fields]
        for namespace, mapping in self._maps.items():
            names.extend(f"{namespace}.{key}" for key in mapping)
        names.extend(self.parameters)
        return names

    def matches(self, criteria: Mapping[str, object]) -> bool:
        for key, value in criteria.items():
            if key == "label":
                if self.label != value:
                    return False
            elif self.parameters.get(key, _MISSING) != value:
                return False
        return True


_MISSING = object()


class ResultSet:
    """An immutable, chainable set of result rows (see module docstring)."""

    def __init__(self, rows: Sequence[Row]):
        self._rows = list(rows)

    # --------------------------------------------------------- construction
    @classmethod
    def from_sweep(cls, sweep: SweepResult) -> "ResultSet":
        """Point-level rows over one :class:`SweepResult`."""
        return cls.from_points(sweep.points)

    @classmethod
    def from_points(cls, points: Sequence[SweepPoint]) -> "ResultSet":
        return cls([Row.from_point(point) for point in points])

    def trials(self) -> "ResultSet":
        """Drop to trial level: one row per raw :class:`RunResult`.

        Only points that carried their per-trial results (the sweep
        scheduler and JSON persistence both do) contribute rows.
        """
        rows: List[Row] = []
        for row in self._rows:
            point = row._record
            if isinstance(point, SweepPoint):
                rows.extend(Row.from_trial(point, trial) for trial in point.trial_results)
            else:  # already trial level: no-op
                rows.append(row)
        return ResultSet(rows)

    # ----------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def rows(self) -> List[Row]:
        return list(self._rows)

    def labels(self) -> List[str]:
        """Distinct row labels, first-seen order."""
        return list(dict.fromkeys(row.label for row in self._rows))

    def metrics(self) -> List[str]:
        """Every metric name resolvable by at least one row."""
        names: Dict[str, None] = {}
        for row in self._rows:
            names.update(dict.fromkeys(row.metrics()))
        return list(names)

    # ---------------------------------------------------------------- verbs
    def where(self, **criteria: object) -> "ResultSet":
        """Rows whose label/parameters equal every given value."""
        return ResultSet([row for row in self._rows if row.matches(criteria)])

    def select(self, metric: str) -> List[float]:
        """The metric's value for every row, in row order."""
        return [row.value(metric) for row in self._rows]

    def group_by(self, key: str = "label") -> Dict[object, "ResultSet"]:
        """Partition rows by a label/parameter value, first-seen order."""
        grouped: Dict[object, List[Row]] = {}
        for row in self._rows:
            value = row.label if key == "label" else row.parameters.get(key)
            grouped.setdefault(value, []).append(row)
        return {value: ResultSet(rows) for value, rows in grouped.items()}

    def series(self, metric: str, by: str = "label") -> Dict[object, List[float]]:
        """Per-group metric series: ``{group value: [metric per row]}``."""
        return {
            value: subset.select(metric) for value, subset in self.group_by(by).items()
        }

    def pivot(self, axis: str, metric: str = "download_time") -> Dict[str, Dict[object, float]]:
        """A label × axis-value table of the metric (one cell per row).

        Duplicate (label, axis value) cells keep the first row, mirroring
        :meth:`SweepResult.point` semantics.
        """
        table: Dict[str, Dict[object, float]] = {}
        for row in self._rows:
            cells = table.setdefault(row.label, {})
            cells.setdefault(row.parameters.get(axis), row.value(metric))
        return table

    # ----------------------------------------------------------- aggregates
    def mean(self, metric: str) -> float:
        """Arithmetic mean of the metric (reuses :func:`metrics.mean`)."""
        return mean([float(value) for value in self.select(metric)])

    def percentile(self, metric: str, q: float) -> float:
        """The q-th percentile of the metric (reuses :func:`metrics.percentile`)."""
        return percentile([float(value) for value in self.select(metric)], q)

    def p90(self, metric: str) -> float:
        """The paper's aggregate: the 90th percentile of the metric."""
        return self.percentile(metric, 90.0)

    def ratio_to(
        self,
        baseline: "ResultSet",
        metric: str,
        aggregate: Union[str, Callable[["ResultSet", str], float]] = "mean",
    ) -> float:
        """``aggregate(self) / aggregate(baseline)`` for one metric.

        ``aggregate`` is ``"mean"``, ``"p90"``, or any callable taking
        ``(result_set, metric)`` — e.g. ``ratio_to(base, "duration")`` < 1
        means this set is faster than the baseline.
        """
        if callable(aggregate):
            ours, theirs = aggregate(self, metric), aggregate(baseline, metric)
        elif aggregate in ("mean", "p90"):
            ours = getattr(self, aggregate)(metric)
            theirs = getattr(baseline, aggregate)(metric)
        else:
            raise ValueError(
                f"unknown aggregate {aggregate!r}; use 'mean', 'p90' or a callable"
            )
        if theirs == 0:
            raise ZeroDivisionError(f"baseline aggregate of {metric!r} is zero")
        return ours / theirs
