"""Declarative experiment specifications and the experiment registry.

An :class:`ExperimentSpec` describes one paper artefact (or a family of
them) as data: the sweep :class:`Axis` list, the labelled
:class:`Variant` list, the protocol each variant runs, base config
overrides, and an optional aggregation hook (Table I derives its columns
from the generic trial result).  Every trial of every spec runs through
``run_protocol_trial``.  The sweep scheduler in
:mod:`repro.experiments.sweep` flattens a spec — or a whole suite of
specs — into one ``(point, variant, trial)`` task grid executed over a
single persistent process pool.

Specs register under short names (``fig9a`` … ``fig9gh``, ``fig10``,
``table1``) via :func:`register_experiment`; :func:`get_experiment`
resolves names and aliases, and ``python -m repro.experiments`` exposes
the registry on the command line.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.churn.manager import configured_churn
from repro.experiments.metrics import RunResult, SweepPoint
from repro.experiments.scenario import PROTOCOLS, ExperimentConfig
from repro.experiments.topology import TOPOLOGIES
from repro.faults.manager import configured_faults

# The aggregation hook's signature: it runs where the grid is saved, so it
# never crosses a process boundary.
AggregateFn = Callable[[str, Dict[str, object], Sequence[RunResult], float], SweepPoint]


class PlanError(ValueError):
    """A request that cannot be planned — an unknown experiment or axis name,
    or a sweep point that cannot run — found before anything executed."""


@dataclass(frozen=True)
class Axis:
    """One sweep dimension of an experiment.

    When ``config_key`` is set, each swept value is applied to the
    per-point :class:`ExperimentConfig` under that key (``dapes_`` prefixes
    reach the nested DAPES config) and recorded in every result row under
    ``name``.  When ``scale_by`` names a base-config field, the swept
    values are *factors* over that field's preset value — this is how
    Fig. 9e/9f sweep "10-70 files" and "1-15 MB" as ratios that survive
    preset rescaling.  Scaled axes should be named for what the values are
    (e.g. ``num_files_factor``); the *resolved* value is recorded under the
    ``scale_by`` field name, and the raw factor is available to label
    templates as ``{<name>}``.
    """

    name: str
    values: Tuple[object, ...]
    config_key: Optional[str] = None
    scale_by: Optional[str] = None

    def resolve(self, base: ExperimentConfig, raw: object):
        """Return ``(param_key, param_value, config_overrides, format_extras)`` for one swept value."""
        if self.scale_by is not None:
            if not isinstance(raw, numbers.Real):
                raise ValueError(f"{self.name} must be a number, got {raw!r}")
            actual = getattr(base, self.scale_by) * raw
            key = self.config_key or self.scale_by
            return self.scale_by, actual, {key: actual}, {self.name: raw}
        if self.config_key is not None:
            return self.name, raw, {self.config_key: raw}, {}
        return self.name, raw, {}, {}


@dataclass(frozen=True)
class Variant:
    """One labelled series of an experiment (a curve in the figure).

    ``label`` may be a ``str.format`` template over the point's parameters
    (plus ``{<axis>_factor}`` for scaled axes).  ``overrides`` are config
    overrides applied on top of the axis overrides; ``parameters`` are
    recorded verbatim in every result row of the series.
    """

    label: str
    protocol: str = "dapes"
    overrides: Mapping[str, object] = field(default_factory=dict)
    parameters: Mapping[str, object] = field(default_factory=dict)


@dataclass
class PointPlan:
    """One fully resolved sweep point: what to run and how to label it."""

    index: int
    label: str
    parameters: Dict[str, object]
    protocol: str
    config: ExperimentConfig
    seeds: List[int]


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative description of one paper experiment.

    Every ``(point, trial)`` task runs ``run_protocol_trial(variant.protocol,
    config, seed)``; the trials of a point aggregate with
    :func:`repro.experiments.metrics.aggregate_trials` unless
    ``aggregate_fn`` derives other columns (Table I).  ``overrides`` pin
    config fields for every point (e.g. Table I's real-world WiFi range).
    """

    name: str
    title: str
    description: str
    artefacts: Tuple[str, ...] = ()
    axes: Tuple[Axis, ...] = ()
    variants: Tuple[Variant, ...] = (Variant(label="default"),)
    overrides: Mapping[str, object] = field(default_factory=dict)
    aliases: Tuple[str, ...] = ()
    aggregate_fn: Optional[AggregateFn] = None

    # ------------------------------------------------------------- planning
    def base_config(self, config: Optional[ExperimentConfig] = None) -> ExperimentConfig:
        """The effective base config: preset default + spec overrides."""
        base = config if config is not None else ExperimentConfig.small()
        if self.overrides:
            base = base.with_overrides(**self.overrides)
        return base

    def with_variants(self, variants: Sequence[Variant]) -> "ExperimentSpec":
        """Copy of this spec with its variant list replaced.

        The usual way to run a subset (or custom set) of a figure's series:
        ``SPEC_FIG10.with_variants(protocol_variants(("dapes", "ekta")))``.
        """
        return replace(self, variants=tuple(variants))

    def with_axes(self, axes: Optional[Mapping[str, Sequence[object]]]) -> "ExperimentSpec":
        """Copy of this spec with selected axis values replaced (by axis name)."""
        if not axes:
            return self
        unknown = set(axes) - {axis.name for axis in self.axes}
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} has no axes {sorted(unknown)}; "
                f"available: {[axis.name for axis in self.axes]}"
            )
        replaced = tuple(
            replace(axis, values=tuple(axes[axis.name])) if axis.name in axes else axis
            for axis in self.axes
        )
        return replace(self, axes=replaced)

    def plan(
        self,
        config: Optional[ExperimentConfig] = None,
        axes: Optional[Mapping[str, Sequence[object]]] = None,
    ) -> List[PointPlan]:
        """Flatten the spec into ordered sweep points (axes outer, variants inner).

        Every point is validated here — the one place ``run``, ``--dry-run``,
        ``task_listing`` and the coordinator's ``submit`` all pass — so a bad
        axis value, ``trials < 1``, a config number no trial can be built
        with (:meth:`ExperimentConfig.validate`), an unknown protocol, topology,
        propagation, churn or fault model, or a bad model parameter raises
        :class:`PlanError` before any task runs or is leased to a worker.
        """
        from repro.experiments.runner import trial_seeds

        spec = self.with_axes(axes)
        base = spec.base_config(config)
        plans: List[PointPlan] = []
        axis_grids = [axis.values for axis in spec.axes]
        for combo in product(*axis_grids):
            axis_parameters: Dict[str, object] = {}
            axis_overrides: Dict[str, object] = {}
            format_extras: Dict[str, object] = {}
            for axis, raw in zip(spec.axes, combo):
                try:
                    param_key, value, overrides, extras = axis.resolve(base, raw)
                except ValueError as exc:
                    raise PlanError(f"{spec.name} point ({axis.name}={raw}): {exc}") from None
                axis_parameters[param_key] = value
                axis_overrides.update(overrides)
                format_extras.update(extras)
            for variant in spec.variants:
                point_config = base.with_overrides(
                    **{**axis_overrides, **variant.overrides}
                )
                parameters = {**axis_parameters, **variant.parameters}
                label = variant.label
                if "{" in label:
                    label = label.format(**parameters, **format_extras)
                try:
                    if point_config.trials < 1:
                        raise ValueError("trials must be at least 1")
                    point_config.validate()
                    point_config.channel()
                    PROTOCOLS.get(variant.protocol)
                    TOPOLOGIES.get(point_config.topology)
                    configured_churn(point_config)
                    configured_faults(point_config)
                except ValueError as exc:
                    where = ", ".join(f"{key}={value}" for key, value in parameters.items())
                    raise PlanError(
                        f"{spec.name} point {label}" + (f" ({where})" if where else "") + f": {exc}"
                    ) from None
                plans.append(
                    PointPlan(
                        index=len(plans),
                        label=label,
                        parameters=parameters,
                        protocol=variant.protocol,
                        config=point_config,
                        seeds=trial_seeds(point_config),
                    )
                )
        return plans

    def task_count(
        self,
        config: Optional[ExperimentConfig] = None,
        axes: Optional[Mapping[str, Sequence[object]]] = None,
    ) -> int:
        """How many ``(point, trial)`` tasks the spec flattens into."""
        return sum(len(plan.seeds) for plan in self.plan(config, axes))


# ================================================================= registry
_EXPERIMENTS: Dict[str, ExperimentSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (its aliases included); returns it unchanged."""
    key = spec.name.lower()
    if key in _EXPERIMENTS or key in _ALIASES:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    for alias in spec.aliases:
        alias_key = alias.lower()
        if alias_key in _EXPERIMENTS or alias_key in _ALIASES:
            raise ValueError(f"experiment alias {alias!r} is already registered")
    _EXPERIMENTS[key] = spec
    for alias in spec.aliases:
        _ALIASES[alias.lower()] = key
    return spec


def _ensure_builtin_experiments() -> None:
    """Import the figure modules so their specs self-register (worker-safe)."""
    import repro.experiments  # noqa: F401  (side effect: registers every builtin spec)


def get_experiment(name: str) -> ExperimentSpec:
    """Resolve an experiment spec by name or alias (case-insensitive)."""
    _ensure_builtin_experiments()
    key = name.lower()
    key = _ALIASES.get(key, key)
    try:
        return _EXPERIMENTS[key]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        ) from None


def available_experiments() -> List[str]:
    """Registered experiment names, in registration order."""
    _ensure_builtin_experiments()
    return list(_EXPERIMENTS)
