"""The deterministic churn-model contract and registry.

A churn model describes *when nodes are present*: which nodes start the run
offline and the full arrival/departure schedule over the run horizon.  The
whole schedule is planned up front — :meth:`ChurnModel.plan` is a pure
function of the churnable node ids, the horizon and the per-node named RNG
streams (``churn.<node_id>``), so the same seed always produces the same
population trajectory, serial or parallel, scalar or array backend.

Three departure semantics exist (:class:`ChurnEvent` actions):

* ``arrive``   — the node attaches its radio and starts its application;
* ``depart``   — *graceful* departure: the application stops (no new work),
  in-flight transmissions drain for a short window, then the radio detaches;
* ``kill``     — *abrupt* departure: the radio detaches instantly, mid
  transfer — the fault-injection path that exercises ARQ pruning, PIT
  expiry and the liveness guards on fire-and-forget events.

Models register under short names via :func:`register_churn`, the
``CHURN`` :class:`~repro.registry.Registry`, and declare their parameters in
``PARAMS`` (:class:`~repro.registry.Parameterised`, the contract shared with
propagation and fault models).  ``ExperimentConfig.churn`` selects one by
name and ``ExperimentConfig.churn_params`` parameterizes it.  The
``none`` model is special-cased by the scenario builders: no manager, no
events, no RNG stream creation — byte-identical to a build without the
churn subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.registry import Parameterised, Registry

#: ChurnEvent actions.
ARRIVE = "arrive"
DEPART = "depart"
KILL = "kill"

ACTIONS = (ARRIVE, DEPART, KILL)

#: ``stream(node_id)`` -> the node's deterministic churn RNG.
StreamFn = Callable[[str], object]


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled population change."""

    time: float
    node_id: str
    action: str  # one of ACTIONS

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown churn action {self.action!r}; expected one of {ACTIONS}")
        if not (isinstance(self.time, (int, float)) and self.time >= 0):
            raise ValueError(f"churn event time must be non-negative (got {self.time!r})")


@dataclass(frozen=True)
class ChurnPlan:
    """A full population trajectory: who starts offline, and every change.

    ``events`` is sorted by time (stable — generation order breaks ties), so
    the lifecycle manager schedules them in one deterministic pass.
    """

    initially_offline: Tuple[str, ...] = ()
    events: Tuple[ChurnEvent, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.initially_offline and not self.events


class ChurnModel(Parameterised):
    """Base class: a deterministic population-dynamics model.

    Subclasses declare their parameters in :attr:`PARAMS` (see
    :class:`~repro.registry.Parameterised`: each becomes an attribute, and
    unknown keys or inconsistent values raise at configuration time, before
    any simulator exists) and implement :meth:`plan`.
    """

    kind = "churn"

    # ----------------------------------------------------------------- planning
    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> ChurnPlan:
        """The full population trajectory for ``node_ids`` over ``[0, horizon]``.

        ``stream(node_id)`` returns that node's named deterministic RNG
        (``churn.<node_id>``); models must draw exclusively from these
        streams so the plan never perturbs any other stream's sequence.
        """
        raise NotImplementedError


# ---------------------------------------------------------- shared validators
def positive_int(value) -> Optional[str]:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        return "must be a positive integer"
    return None


# ================================================================== registry
CHURN = Registry("churn model")
register_churn = CHURN.register
available_churn_models = CHURN.names
churn_model_class = CHURN.get
validate_churn = CHURN.validate
build_churn_model = CHURN.build


@register_churn("none")
class NoChurn(ChurnModel):
    """The fixed-population null model: nobody arrives, nobody leaves.

    Registered for registry completeness (``repro-experiments list
    --registries``); the scenario builders special-case ``churn="none"``
    and never instantiate a manager for it, so a zero-churn run is
    byte-identical to one built before the churn subsystem existed.
    """

    def plan(self, node_ids: Sequence[str], horizon: float, stream: StreamFn) -> ChurnPlan:
        return ChurnPlan()
