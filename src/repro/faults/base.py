"""The deterministic fault-model contract and registry.

Where churn (:mod:`repro.churn`) degrades the *population*, faults degrade
the *network*: links flap, the area splits into partitions, nodes stall
mid-run, and the whole channel degrades for a window.  A fault model plans
its entire schedule up front — :meth:`FaultModel.plan` is a pure function of
the node ids, the run horizon and per-entity named RNG streams
(``faults.<entity>``), so the same seed always produces the same fault
trajectory, serial or parallel, scalar or array backend.

A plan is a set of :class:`FaultEpisode` intervals, each of one kind:

* ``link``      — the link between one node *pair* is down (``severity`` =
  1.0, the default) or degraded (extra loss probability ``severity`` < 1.0)
  for the interval, layered onto whatever propagation backend is active;
* ``partition`` — a group of nodes is cut off from the rest: every link
  crossing the boundary is blocked until the episode heals.  The subject is
  either an explicit node-id tuple or the sentinel ``"spatial"``, which the
  lifecycle manager resolves from node positions when the split begins;
* ``stall``     — one node pauses: frames it hands to the medium are queued
  (and replayed, in order, on resume) and frames addressed to it are
  suppressed.  Its clock and timers keep running — a paused process, not a
  dead one;
* ``degrade``   — a global extra loss probability (``severity``) applies to
  every delivery during the interval: time-varying channel quality.

Models register under short names via :func:`register_fault`, the
``FAULTS`` :class:`~repro.registry.Registry`, and declare their parameters in
``PARAMS`` (:class:`~repro.registry.Parameterised`, the contract shared with
propagation and churn models).  ``ExperimentConfig.faults`` selects one by
name and ``ExperimentConfig.fault_params`` parameterizes it.
The ``none`` model is special-cased by the scenario builders: no manager,
no episodes, no RNG stream creation — byte-identical to a build without the
fault subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.registry import Parameterised, Registry

#: FaultEpisode kinds.
LINK = "link"
PARTITION = "partition"
STALL = "stall"
DEGRADE = "degrade"

KINDS = (LINK, PARTITION, STALL, DEGRADE)

#: Subject sentinel: resolve partition membership spatially at episode start.
SPATIAL = "spatial"

#: ``stream(entity)`` -> the entity's deterministic fault RNG.
StreamFn = Callable[[str], object]


@dataclass(frozen=True)
class FaultEpisode:
    """One fault interval: what breaks, when, and how badly.

    ``subject`` depends on ``kind``: a ``(a, b)`` node-id pair for ``link``,
    a node-id tuple (or the ``"spatial"`` sentinel) for ``partition``, a
    node id for ``stall``, and ``None`` for ``degrade``.  ``severity`` is
    the blocking strength: 1.0 (the default) blocks outright, anything in
    (0, 1) is an extra loss probability layered onto the channel.
    """

    kind: str
    start: float
    end: float
    subject: object = None
    severity: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if not (isinstance(self.start, (int, float)) and self.start >= 0):
            raise ValueError(f"fault episode start must be non-negative (got {self.start!r})")
        if not (isinstance(self.end, (int, float)) and self.end > self.start):
            raise ValueError(
                f"fault episode end must exceed its start (got {self.start!r}..{self.end!r})"
            )
        if not (isinstance(self.severity, (int, float)) and 0.0 < self.severity <= 1.0):
            raise ValueError(f"fault severity must be in (0, 1] (got {self.severity!r})")
        if self.kind == LINK:
            if not (isinstance(self.subject, tuple) and len(self.subject) == 2):
                raise ValueError(f"link episode subject must be a node-id pair (got {self.subject!r})")
        elif self.kind == PARTITION:
            if self.subject != SPATIAL and not isinstance(self.subject, tuple):
                raise ValueError(
                    f"partition episode subject must be a node-id tuple or {SPATIAL!r} "
                    f"(got {self.subject!r})"
                )
        elif self.kind == STALL:
            if not isinstance(self.subject, str) or not self.subject:
                raise ValueError(f"stall episode subject must be a node id (got {self.subject!r})")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class FaultPlan:
    """A full fault trajectory: every episode, sorted by start time.

    Sorting is stable (generation order breaks ties), so the lifecycle
    manager schedules begins and heals in one deterministic pass.
    """

    episodes: Tuple[FaultEpisode, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.episodes


class FaultModel(Parameterised):
    """Base class: a deterministic network-degradation model.

    Subclasses declare their parameters in :attr:`PARAMS` (see
    :class:`~repro.registry.Parameterised`: each becomes an attribute, and
    unknown keys or inconsistent values raise at configuration time, before
    any simulator exists) and implement :meth:`plan`.
    """

    kind = "fault"

    # ----------------------------------------------------------------- planning
    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> FaultPlan:
        """The full fault trajectory for ``node_ids`` over ``[0, horizon]``.

        ``stream(entity)`` returns a named deterministic RNG
        (``faults.<entity>``); models must draw exclusively from these
        streams so the plan never perturbs any other stream's sequence.
        """
        raise NotImplementedError


# ---------------------------------------------------------- shared validators
def severity_value(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or not 0.0 < value <= 1.0:
        return "must be a severity in (0, 1]"
    return None


def pair_key(a: str, b: str) -> Tuple[str, str]:
    """The canonical (sorted) key for an undirected node pair."""
    return (a, b) if a <= b else (b, a)


# ================================================================== registry
FAULTS = Registry("fault model")
register_fault = FAULTS.register
available_fault_models = FAULTS.names
fault_model_class = FAULTS.get
validate_faults = FAULTS.validate
build_fault_model = FAULTS.build


@register_fault("none")
class NoFaults(FaultModel):
    """The null model: the network never degrades.

    Registered for registry completeness (``repro-experiments list
    --registries``); the scenario builders special-case ``faults="none"``
    and never instantiate a manager for it, so a zero-fault run is
    byte-identical to one built before the fault subsystem existed.
    """

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> FaultPlan:
        return FaultPlan()
