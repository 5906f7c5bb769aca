"""Deterministic fault injection: network degradation as a scenario axis.

See :mod:`repro.faults.base` for the model contract and registry,
:mod:`repro.faults.manager` for the lifecycle manager the scenario builders
wire into ``world()``, and :mod:`repro.faults.invariants` for the
end-of-trial invariant check every trial runs.  Importing this package
registers the built-in models: ``none``, ``link_flap``, ``partition``,
``stall``, ``degrade``.
"""

from repro._exports import lazy_exports

# Each model registers itself when its module is imported.
from repro.faults import base  # noqa: F401
from repro.faults import degrade  # noqa: F401
from repro.faults import link_flap  # noqa: F401
from repro.faults import partition  # noqa: F401
from repro.faults import stall  # noqa: F401

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "DEGRADE",
        "KINDS",
        "LINK",
        "PARTITION",
        "SPATIAL",
        "STALL",
        "FaultEpisode",
        "FaultModel",
        "FaultPlan",
        "available_fault_models",
        "build_fault_model",
        "fault_model_class",
        "pair_key",
        "register_fault",
        "validate_faults",
    ),
    "degrade": ("Degrade",),
    "invariants": ("InvariantViolationError", "check_trial"),
    "link_flap": ("LinkFlap",),
    "manager": ("FaultManager", "build_fault_manager", "fault_node_ids"),
    "partition": ("Partition",),
    "stall": ("Stall",),
})
