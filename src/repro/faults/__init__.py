"""Deterministic fault injection: network degradation as a scenario axis.

See :mod:`repro.faults.base` for the model contract and registry,
:mod:`repro.faults.manager` for the lifecycle manager the scenario builders
wire into ``world()``, and :mod:`repro.faults.invariants` for the runtime
safety/liveness monitor.  Importing this package registers the built-in
models: ``none``, ``link_flap``, ``partition``, ``stall``, ``degrade``.
"""

from repro.faults.base import (
    DEGRADE,
    KINDS,
    LINK,
    PARTITION,
    SPATIAL,
    STALL,
    FaultEpisode,
    FaultModel,
    FaultPlan,
    available_fault_models,
    build_fault_model,
    fault_model_class,
    pair_key,
    register_fault,
    validate_faults,
)
from repro.faults.degrade import Degrade
from repro.faults.invariants import (
    InvariantMonitor,
    InvariantViolationError,
    build_invariant_monitor,
)
from repro.faults.link_flap import LinkFlap
from repro.faults.manager import FaultManager, build_fault_manager, fault_node_ids
from repro.faults.partition import Partition
from repro.faults.stall import Stall

__all__ = [
    "DEGRADE",
    "KINDS",
    "LINK",
    "PARTITION",
    "SPATIAL",
    "STALL",
    "Degrade",
    "FaultEpisode",
    "FaultManager",
    "FaultModel",
    "FaultPlan",
    "InvariantMonitor",
    "InvariantViolationError",
    "LinkFlap",
    "Partition",
    "Stall",
    "available_fault_models",
    "build_fault_manager",
    "build_fault_model",
    "build_invariant_monitor",
    "fault_model_class",
    "fault_node_ids",
    "pair_key",
    "register_fault",
    "validate_faults",
]
