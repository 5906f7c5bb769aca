"""Reporting over sweep results: renderers, exporters and cross-run diffing.

One module owns every human- and tool-facing view of a
:class:`~repro.experiments.metrics.SweepResult`:

* :func:`to_text` — the plain-text table the benchmarks archive;
* :func:`to_markdown` / :func:`to_csv` / :func:`to_gnuplot` — exporters for
  docs, spreadsheets and plot scripts, all driven by the same row model and
  working for every registered spec;
* :func:`tabulate` — arbitrary-metric rows over a
  :class:`~repro.experiments.query.ResultSet` (any scalar field, ``extras``
  or ``profile`` key, at point or trial level);
* :func:`diff` — field-by-field comparison of two runs with three-way
  verdicts (``identical`` / ``within_tolerance`` / ``regressed``), down to
  the per-trial level, usable against full ``SweepResult`` JSON or the
  committed row-based ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.metrics import SweepResult, _freeze_parameters
from repro.experiments.query import ResultSet

# Verdicts, mildest first; a report's overall verdict is its worst entry.
IDENTICAL = "identical"
WITHIN_TOLERANCE = "within_tolerance"
REGRESSED = "regressed"
_SEVERITY = {IDENTICAL: 0, WITHIN_TOLERANCE: 1, REGRESSED: 2}


# ================================================================ rendering
def to_text(result: SweepResult) -> str:
    """A plain-text table of every point (what the benchmarks archive)."""
    lines = [f"== {result.name} ==", result.description]
    if not result.points:
        return "\n".join(lines + ["(no data)"])
    columns = sorted({key for point in result.points for key in point.as_dict()})
    header = " | ".join(f"{column:>18}" for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for point in result.points:
        row = point.as_dict()
        lines.append(" | ".join(f"{str(row.get(column, '')):>18}" for column in columns))
    return "\n".join(lines)


def _row_columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Union of row keys: ``label`` first, the rest sorted (stable tables)."""
    keys = {key for row in rows for key in row}
    ordered = ["label"] if "label" in keys else []
    ordered.extend(sorted(keys - {"label"}))
    return ordered


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def tabulate(
    result_set: ResultSet,
    metrics: Sequence[str],
    include_parameters: bool = True,
) -> List[Dict[str, object]]:
    """One dict per row: label (+ parameters) + each requested metric.

    Metrics go through :meth:`ResultSet.select` semantics, so any scalar
    field, ``extras.<key>``/``profile.<key>`` entry or recorded parameter is
    addressable — at trial level too (``result_set.trials()``).
    """
    rows: List[Dict[str, object]] = []
    for row in result_set:
        record: Dict[str, object] = {"label": row.label}
        if include_parameters:
            record.update(row.parameters)
        for metric in metrics:
            record[metric] = row.value(metric)
        rows.append(record)
    return rows


def rows_to_markdown(rows: Sequence[Mapping[str, object]]) -> str:
    """A GitHub-flavoured Markdown table over arbitrary row dicts."""
    if not rows:
        return "*(no data)*"
    columns = _row_columns(rows)
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row.get(column)) for column in columns) + " |")
    return "\n".join(lines)


def to_markdown(result: SweepResult, description: bool = True) -> str:
    """The whole sweep as a Markdown section: title, description, row table."""
    lines = [f"## {result.name}", ""]
    if description and result.description:
        lines.extend([result.description, ""])
    lines.append(rows_to_markdown(result.rows()))
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """Arbitrary row dicts as CSV text (union of columns, label first)."""
    columns = _row_columns(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({column: row.get(column, "") for column in columns})
    return buffer.getvalue()


def to_csv(result: SweepResult) -> str:
    """The sweep's point rows as CSV text."""
    return rows_to_csv(result.rows())


def default_axis(result: SweepResult) -> Optional[str]:
    """The first parameter that actually varies across points (plot x-axis)."""
    seen: Dict[str, set] = {}
    for point in result.points:
        for key, value in point.parameters.items():
            seen.setdefault(key, set()).add(repr(value))
    for key, values in seen.items():
        if len(values) > 1:
            return key
    return next(iter(seen), None)


def to_gnuplot(
    result: SweepResult,
    axis: Optional[str] = None,
    metric: str = "download_time",
) -> str:
    """Gnuplot-ready columns: the axis, then one metric column per label.

    Missing cells render as ``?`` (gnuplot's missing-datum marker); load
    with e.g. ``plot for [i=2:*] "fig.dat" using 1:i with linespoints``.
    """
    axis = axis if axis is not None else default_axis(result)
    if axis is None:
        raise ValueError(f"result {result.name!r} has no parameters to use as an axis")
    table = ResultSet.from_sweep(result).pivot(axis, metric)
    labels = list(table)
    values: List[object] = []
    for cells in table.values():
        values.extend(value for value in cells if value not in values)
    lines = [
        f"# {result.name}: {metric} vs {axis}",
        "# " + " ".join([axis] + [json.dumps(str(label)) for label in labels]),
    ]
    for value in values:
        cells = [_cell(value)]
        for label in labels:
            cell = table[label].get(value)
            cells.append("?" if cell is None else _cell(cell))
        lines.append(" ".join(cells))
    return "\n".join(lines)


# ================================================================== diffing
@dataclass(frozen=True)
class FieldDiff:
    """One compared field: where it lives, both values, and the verdict."""

    path: str
    a: object
    b: object
    verdict: str
    #: Relative difference ``|a-b| / max(|a|,|b|)`` for numeric pairs,
    #: ``None`` for type/shape mismatches.
    delta: Optional[float] = None

    def __str__(self) -> str:
        delta = f" (delta {self.delta:.2%})" if self.delta is not None else ""
        return f"{self.verdict:>16}  {self.path}: {self.a!r} vs {self.b!r}{delta}"


@dataclass
class DiffReport:
    """Outcome of :func:`diff`: totals plus every non-identical field."""

    a_name: str
    b_name: str
    tolerance: float
    fields_compared: int = 0
    differences: List[FieldDiff] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        worst = IDENTICAL
        for entry in self.differences:
            if _SEVERITY[entry.verdict] > _SEVERITY[worst]:
                worst = entry.verdict
        return worst

    @property
    def regressions(self) -> List[FieldDiff]:
        return [entry for entry in self.differences if entry.verdict == REGRESSED]

    def summary(self) -> str:
        lines = [
            f"diff: {self.a_name} vs {self.b_name} "
            f"(tolerance {self.tolerance:g}, {self.fields_compared} fields)",
            f"verdict: {self.verdict} — {len(self.regressions)} regressed, "
            f"{len(self.differences) - len(self.regressions)} within tolerance",
        ]
        lines.extend(str(entry) for entry in self.differences)
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            f"### Diff: `{self.a_name}` vs `{self.b_name}`",
            "",
            f"**Verdict: {self.verdict}** — {self.fields_compared} fields compared, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.differences) - len(self.regressions)} within tolerance "
            f"(tolerance {self.tolerance:g}).",
        ]
        if self.differences:
            lines.append("")
            lines.append(
                rows_to_markdown(
                    [
                        {
                            "field": entry.path,
                            "a": _cell(entry.a),
                            "b": _cell(entry.b),
                            "delta": "" if entry.delta is None else f"{entry.delta:.2%}",
                            "verdict": entry.verdict,
                        }
                        for entry in self.differences
                    ]
                )
            )
        return "\n".join(lines)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def classify(a: object, b: object, tolerance: float = 0.0) -> Tuple[str, Optional[float]]:
    """Three-way verdict for one field pair: ``(verdict, relative delta)``.

    Equal values (NaN counting as equal to NaN) are ``identical``; numeric
    pairs within ``tolerance`` relative difference are ``within_tolerance``
    (the boundary is inclusive); everything else is ``regressed``.
    """
    if _is_number(a) and _is_number(b):
        if math.isnan(a) and math.isnan(b):
            return IDENTICAL, 0.0
        if a == b:
            return IDENTICAL, 0.0
        denominator = max(abs(a), abs(b))
        if not math.isfinite(denominator):
            return REGRESSED, None
        delta = abs(a - b) / denominator
        return (WITHIN_TOLERANCE if delta <= tolerance else REGRESSED), delta
    if type(a) is type(b) and a == b:
        return IDENTICAL, 0.0
    if a is None and b is None:
        return IDENTICAL, 0.0
    return REGRESSED, None


def _walk(report: DiffReport, path: str, a: object, b: object, tolerance: float) -> None:
    """Recursively compare JSON-shaped values, recording non-identical fields."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        for key in sorted(set(a) | set(b), key=str):
            child = f"{path}.{key}" if path else str(key)
            if key not in a:
                report.fields_compared += 1
                report.differences.append(FieldDiff(child, None, b[key], REGRESSED))
            elif key not in b:
                report.fields_compared += 1
                report.differences.append(FieldDiff(child, a[key], None, REGRESSED))
            else:
                _walk(report, child, a[key], b[key], tolerance)
        return
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            report.fields_compared += 1
            report.differences.append(
                FieldDiff(f"{path}.length", len(a), len(b), REGRESSED, None)
            )
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            _walk(report, f"{path}[{index}]", item_a, item_b, tolerance)
        return
    report.fields_compared += 1
    verdict, delta = classify(a, b, tolerance)
    if verdict != IDENTICAL:
        report.differences.append(FieldDiff(path, a, b, verdict, delta))


def _group_points(sweep: SweepResult) -> Dict[object, List]:
    """Points grouped by ``(label, frozen parameters)``, insertion-ordered."""
    groups: Dict[object, List] = {}
    for point in sweep.points:
        key = (point.label, _freeze_parameters(point.parameters))
        groups.setdefault(key, []).append(point)
    return groups


def _point_payload(point, trial_level: bool) -> Dict[str, object]:
    payload = point.to_dict()
    if trial_level:
        # Profiles carry wall-clock measurements — never comparable.
        for trial in payload["trial_results"]:
            trial.pop("profile", None)
    else:
        payload.pop("trial_results", None)
    return payload


DiffSide = Union[SweepResult, Mapping[str, object], Sequence[Mapping[str, object]]]


def _normalize_side(side: DiffSide) -> Tuple[str, object]:
    """``(name, SweepResult | rows list)`` for any supported diff input.

    Accepts a :class:`SweepResult`, a parsed ``SweepResult`` JSON payload, a
    row-based payload like the committed ``BENCH_*.json`` files (``points``
    holding flat row dicts), or a bare list of row dicts.
    """
    if isinstance(side, SweepResult):
        return side.name, side
    if isinstance(side, Mapping):
        points = side.get("points", [])
        name = str(side.get("name", "rows"))
        if points and isinstance(points[0], Mapping) and "parameters" in points[0]:
            return name, SweepResult.from_dict(side)
        return name, list(points)
    return "rows", list(side)


def diff(
    a: DiffSide,
    b: DiffSide,
    *,
    tolerance: float = 0.0,
    trial_level: bool = True,
) -> DiffReport:
    """Field-by-field comparison of two runs with three-way verdicts.

    Two full :class:`SweepResult`\\ s are matched point-by-point on
    ``(label, parameters)`` — unmatched points regress — and compared field
    by field, including every per-trial :class:`RunResult` when
    ``trial_level`` is set (``profile`` excluded: wall-clock is never
    comparable).  When either side only carries flat rows (the committed
    ``BENCH_*.json`` shape), both sides are compared as rows in plan order.

    ``tolerance`` is a relative bound: numeric fields within it verdict
    ``within_tolerance`` (inclusive); ``0.0`` demands byte-identical values.
    """
    a_name, a_data = _normalize_side(a)
    b_name, b_data = _normalize_side(b)
    report = DiffReport(a_name=a_name, b_name=b_name, tolerance=tolerance)

    if isinstance(a_data, SweepResult) and isinstance(b_data, SweepResult):
        # Group by (label, frozen parameters): duplicate points pair up in
        # insertion order, and a count mismatch within a group regresses —
        # extra/missing points can never silently verdict "identical".
        groups_a = _group_points(a_data)
        groups_b = _group_points(b_data)
        for key in list(groups_a) + [key for key in groups_b if key not in groups_a]:
            points_a = groups_a.get(key, [])
            points_b = groups_b.get(key, [])
            sample = (points_a or points_b)[0]
            path = f"{sample.label}{dict(sample.parameters)}"
            if len(points_a) != len(points_b):
                report.fields_compared += 1
                report.differences.append(
                    FieldDiff(f"{path}.point_count", len(points_a), len(points_b), REGRESSED)
                )
            for point, other in zip(points_a, points_b):
                _walk(
                    report,
                    path,
                    _point_payload(point, trial_level),
                    _point_payload(other, trial_level),
                    tolerance,
                )
        return report

    rows_a = a_data.rows() if isinstance(a_data, SweepResult) else a_data
    rows_b = b_data.rows() if isinstance(b_data, SweepResult) else b_data
    _walk(report, "points", list(rows_a), list(rows_b), tolerance)
    return report


# ================================================================== loading
def load_result(path: Union[str, pathlib.Path]) -> DiffSide:
    """Parse a persisted result file for :func:`diff` / reporting.

    Understands full ``SweepResult`` JSON (CLI ``--out`` / store payloads,
    which wrap the sweep under a ``sweep`` key) and the row-based
    ``BENCH_*.json`` artifacts.
    """
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if isinstance(payload, Mapping) and "sweep" in payload:
        payload = payload["sweep"]
    _, data = _normalize_side(payload)
    if isinstance(data, SweepResult):
        return data
    return payload
