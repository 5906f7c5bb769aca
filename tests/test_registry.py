"""The plug-in contract every registry and parameterised model shares.

One :class:`repro.registry.Registry` per plug-in kind (topology, protocol,
propagation, churn, faults) and one :class:`repro.registry.Parameterised`
base for every model configured by a parameter mapping: these tests pin
the contract once, over every registry and every shipped model, instead of
once per subsystem.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.churn import churn_model_class
from repro.churn.base import CHURN
from repro.experiments import ExperimentConfig, get_builder, get_experiment
from repro.experiments.scenario import PROTOCOLS
from repro.experiments.topology import TOPOLOGIES, get_topology
from repro.faults import fault_model_class
from repro.faults.base import FAULTS
from repro.wireless import ChannelConfig
from repro.wireless.propagation import PROPAGATION, propagation_class

#: id -> (the kind label its errors use, the registry, its public lookup).
REGISTRIES = {
    "topology": ("topology", TOPOLOGIES, get_topology),
    "protocol": ("protocol", PROTOCOLS, get_builder),
    "propagation": ("propagation model", PROPAGATION, propagation_class),
    "churn": ("churn model", CHURN, churn_model_class),
    "faults": ("fault model", FAULTS, fault_model_class),
}

MODEL_REGISTRIES = {"propagation": PROPAGATION, "churn": CHURN, "faults": FAULTS}

#: Every shipped parameterised model (test-registered ones excluded, so the
#: parameter ids do not depend on which test modules were collected first).
SHIPPED_MODELS = [
    (kind, name)
    for kind, registry in MODEL_REGISTRIES.items()
    for name in registry.names()
    if registry.get(name).__module__.startswith("repro.")
]


@pytest.mark.parametrize("which", sorted(REGISTRIES))
def test_registry_lists_names_on_a_miss_and_refuses_duplicates(which):
    kind, registry, lookup = REGISTRIES[which]
    assert registry.kind == kind
    assert registry.names()
    expected = f"unknown {kind} 'nosuch'; available: {registry.names()}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        lookup("nosuch")
    taken = registry.names()[0]
    before = registry.get(taken)
    with pytest.raises(ValueError, match=f"{kind} '{taken}' is already registered"):
        registry.register(taken)(type("Duplicate", (), {}))
    assert registry.get(taken) is before


@pytest.mark.parametrize("kind, name", SHIPPED_MODELS, ids=[f"{k}-{n}" for k, n in SHIPPED_MODELS])
def test_model_params_are_attributes_and_bad_ones_are_refused(kind, name):
    registry = MODEL_REGISTRIES[kind]
    cls = registry.get(name)
    model = registry.build(name)
    assert model.name == name
    for key, (default, validator) in cls.PARAMS.items():
        assert getattr(model, key) == default, key
        if default is not None and validator is not None:
            assert validator(default) is None, f"{name}.{key} default fails its own validator"
    with pytest.raises(ValueError, match=f"{cls.kind} model '{name}' has no parameter 'typo'"):
        registry.validate(name, {"typo": 1.0})
    for key in cls.PARAMS:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"parameter '{key}' must be finite"):
                registry.build(name, {key: value})


def test_non_finite_parameters_fail_at_config_and_plan_time():
    with pytest.raises(ValueError, match="'cutoff' must be finite"):
        ChannelConfig(propagation="log_distance", propagation_params={"cutoff": math.inf})
    with pytest.raises(ValueError, match="'sigma' must be finite"):
        ChannelConfig(propagation="log_distance", propagation_params={"sigma": math.nan})
    tiny = ExperimentConfig.tiny()
    with pytest.raises(ValueError, match="churn point .*'mean_session' must be finite"):
        get_experiment("churn").plan(tiny, axes={"mean_session": (math.inf,)})
    with pytest.raises(ValueError, match="faults point .*'mean_down' must be finite"):
        get_experiment("faults").plan(tiny, axes={"mean_down": (math.inf,)})
