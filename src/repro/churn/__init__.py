"""Deterministic churn: population dynamics as a first-class scenario axis.

See :mod:`repro.churn.base` for the model contract and registry,
:mod:`repro.churn.manager` for the lifecycle manager the scenario builders
wire into ``world()``.  Importing this package registers the built-in
models: ``none``, ``poisson``, ``flashcrowd``, ``trace``.
"""

from repro._exports import lazy_exports

# Each model registers itself when its module is imported.
from repro.churn import base  # noqa: F401
from repro.churn import flashcrowd  # noqa: F401
from repro.churn import poisson  # noqa: F401
from repro.churn import trace  # noqa: F401

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "ACTIONS",
        "ARRIVE",
        "DEPART",
        "KILL",
        "ChurnEvent",
        "ChurnModel",
        "ChurnPlan",
        "available_churn_models",
        "build_churn_model",
        "churn_model_class",
        "register_churn",
        "validate_churn",
    ),
    "flashcrowd": ("FlashCrowd",),
    "manager": ("DEFAULT_DRAIN_DELAY", "ChurnManager", "build_churn_manager", "churnable_node_ids"),
    "poisson": ("PoissonChurn",),
    "trace": ("TraceChurn",),
})
