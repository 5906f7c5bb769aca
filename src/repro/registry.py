"""One plug-in registry and one parameter contract.

Every pluggable part of the harness is a class selected by name: topologies,
protocols, propagation models, churn models and fault models.  Each kind
keeps one :class:`Registry`, and its public ``register_*`` / ``get_*`` /
``available_*`` names are bindings of that registry's methods.

Propagation, churn and fault models are further configured by a
``{parameter: value}`` mapping.  They share :class:`Parameterised`: a model
declares ``PARAMS = {name: (default, validator)}``, and constructing it
validates the given values and sets every parameter, given or defaulted, as
an attribute.  Validation is a class method, so a configuration is checked
when it is built or planned, before any simulator exists.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: A validator returns an error string (completing "parameter 'x' ...") or None.
Validator = Callable[[object], Optional[str]]


class Registry:
    """The name -> class table of one plug-in kind.

    ``kind`` labels the error messages (``unknown churn model 'x'``).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._classes: Dict[str, type] = {}

    def register(self, name: str):
        """Class decorator: make a class available under ``name`` (sets ``cls.name``)."""

        def decorator(cls: type) -> type:
            if name in self._classes:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            cls.name = name
            self._classes[name] = cls
            return cls

        return decorator

    def get(self, name: str) -> type:
        """The class registered under ``name``; ``ValueError`` lists the names."""
        try:
            return self._classes[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._classes)

    def validate(self, name: str, params: Mapping[str, object]) -> None:
        """Raise ``ValueError`` on an unknown name or a bad parameter."""
        self.get(name).validate_params(params)

    def build(self, name: str, params: Optional[Mapping[str, object]] = None):
        """An instance of the :class:`Parameterised` class registered under ``name``."""
        return self.get(name)(params)


class Parameterised:
    """Base of a model configured by a ``{parameter: value}`` mapping.

    Subclasses declare :attr:`PARAMS`; unknown keys, non-finite numbers and
    values their validator rejects raise ``ValueError``.
    """

    name: str = ""
    #: Labels the error messages ("churn", "fault", "propagation").
    kind: str = ""
    #: Parameter name -> (default value, validator or None).
    PARAMS: Mapping[str, Tuple[object, Optional[Validator]]] = {}

    def __init__(self, params: Optional[Mapping[str, object]] = None):
        params = dict(params or {})
        self.validate_params(params)
        for key, (default, _validator) in self.PARAMS.items():
            setattr(self, key, params.get(key, default))

    @classmethod
    def validate_params(cls, params: Mapping[str, object]) -> None:
        """Raise ``ValueError`` on unknown keys or out-of-range values."""
        for key, value in params.items():
            if key not in cls.PARAMS:
                raise ValueError(
                    f"{cls.kind} model {cls.name!r} has no parameter {key!r}; "
                    f"available: {sorted(cls.PARAMS)}"
                )
            # NaN compares false against every bound and inf passes the
            # positive ones, so non-finite numbers are refused before any
            # validator runs.
            if isinstance(value, float) and not math.isfinite(value):
                error = "must be finite"
            else:
                _default, validator = cls.PARAMS[key]
                error = validator(value) if validator is not None else None
            if error:
                raise ValueError(f"{cls.kind} parameter {key!r} {error} (got {value!r})")


# ---------------------------------------------------------- shared validators
def positive_number(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or not value > 0:
        return "must be a positive number"
    return None


def non_negative_number(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or not value >= 0:
        return "must be a non-negative number"
    return None


def probability(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        return "must be a probability in [0, 1]"
    return None
