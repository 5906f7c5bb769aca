"""Pluggable radio propagation models.

Historically the medium hard-coded one physics: a unit disk of radius
``ChannelConfig.wifi_range`` with a uniform Bernoulli loss on top.  This
module turns that into the ``PROPAGATION``
:class:`~repro.registry.Registry` of :class:`PropagationModel` backends,
selected by ``ChannelConfig.propagation`` and parameterised by
``ChannelConfig.propagation_params`` (checked against each model's
``PARAMS`` by :class:`~repro.registry.Parameterised` when the config is
built):

``unit_disk`` (default)
    The seed semantics, byte-identical: every node within the sender's
    nominal range hears the frame, nothing beyond it does, and no extra
    per-link loss applies.
``log_distance``
    Distance-dependent link quality: the loss probability of a link grows
    as ``(d_eff / max_range) ** exponent`` where ``d_eff`` is the distance
    scaled by a per-link log-normal shadowing factor.  Shadowing is
    *query-order independent*: each unordered node pair's factor is derived
    by hashing the pair against a salt drawn once from the named
    ``wireless.shadowing`` RNG stream, so the grid index and the test suite's
    brute-force oracle (which evaluate different candidate sets) see
    identical links.
``obstacle``
    Unit-disk reach filtered by ray–segment occlusion against an
    :class:`~repro.wireless.environment.Environment`: links whose
    line-of-sight crosses a wall are unreachable (or suffer
    ``occluded_loss`` when configured).  Every link evaluation is one ray
    test; the environment culls walls by obstacle rectangle.

The contract every backend implements:

* :meth:`PropagationModel.max_range` — the furthest distance at which a
  link can possibly be reachable given the sender's nominal range.  The
  medium sizes grid cells with it and queries the spatial index at it, then
  filters the candidates through the model.
* :meth:`PropagationModel.link_quality` — per-link verdict: an extra loss
  probability in ``[0, 1)`` or ``None`` when the link is unreachable.

Models whose :attr:`~PropagationModel.trivial` flag is true (only
``unit_disk``) let the medium skip per-link evaluation entirely, keeping
the default configuration on the exact seed hot path.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Mapping, Optional, Tuple

from repro.registry import Parameterised, Registry, non_negative_number, positive_number
from repro.wireless.environment import Environment

PROPAGATION = Registry("propagation model")
register_propagation = PROPAGATION.register
available_propagation_models = PROPAGATION.names
propagation_class = PROPAGATION.get
#: Called by ``ChannelConfig.__post_init__`` so misconfigurations fail at
#: config construction, long before a medium exists.
validate_propagation = PROPAGATION.validate


def propagation_max_range(name: str, params: Mapping[str, object], nominal_range: float) -> float:
    """Config-level max range of a model, without instantiating a medium.

    The spatial index derives its default grid cell size from this, so cell
    sizing follows the *true* reach of the configured physics rather than
    assuming ``wifi_range`` is it.
    """
    return PROPAGATION.build(name, params).max_range(nominal_range)


def build_propagation(
    config,
    sim=None,
    environment: Optional[Environment] = None,
    mobility=None,
) -> "PropagationModel":
    """Instantiate and bind the backend selected by a ``ChannelConfig``."""
    model = PROPAGATION.build(config.propagation, config.propagation_params)
    model.bind(sim=sim, environment=environment, mobility=mobility)
    return model


class PropagationModel(Parameterised):
    """Per-link radio physics: reachability and extra loss probability.

    Subclasses declare their accepted parameters in :attr:`PARAMS`
    (name → ``(default, validator)``, see :class:`~repro.registry.Parameterised`);
    unknown or invalid parameters raise at config validation time.
    """

    kind = "propagation"
    #: Trivial models deliver to every index candidate with no extra loss,
    #: letting the medium bypass per-link evaluation (the seed hot path).
    trivial = False

    def __init__(self, params: Optional[Mapping[str, object]] = None):
        super().__init__(params)
        self.sim = None
        self.environment: Optional[Environment] = None
        self.mobility = None

    def bind(self, sim=None, environment: Optional[Environment] = None, mobility=None) -> None:
        """Attach the simulation context (RNG streams, environment, mobility)."""
        self.sim = sim
        self.environment = environment
        self.mobility = mobility

    # ------------------------------------------------------------- contract
    def max_range(self, nominal_range: float) -> float:
        """Furthest distance at which a link can be reachable."""
        return nominal_range

    def link_quality(
        self,
        sender_xy: Tuple[float, float],
        receiver_xy: Tuple[float, float],
        distance: float,
        nominal_range: float,
        rng: random.Random,
        link: Tuple[str, str] = ("", ""),
    ) -> Optional[float]:
        """Extra loss probability of the link in ``[0, 1)``, or ``None``.

        ``None`` means the link is unreachable: the receiver neither hears
        the frame nor senses the channel busy.  ``link`` carries the
        ``(sender_id, receiver_id)`` pair for models that memoize per-pair
        state; ``rng`` is the medium's link RNG for models that need draws
        at evaluation time (none of the built-ins do — determinism and
        query-order independence are part of the contract).
        """
        raise NotImplementedError

    def metrics(self) -> Dict[str, float]:
        """Model counters for a run profile (open-field models keep none)."""
        return {}


def _cutoff(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or not value >= 1.0:
        return "must be >= 1 (a factor over the nominal range)"
    return None


@register_propagation("unit_disk")
class UnitDiskPropagation(PropagationModel):
    """The seed physics: perfect reception within range, nothing beyond."""

    trivial = True

    def link_quality(self, sender_xy, receiver_xy, distance, nominal_range, rng, link=("", "")):
        return 0.0 if distance <= nominal_range else None


@register_propagation("log_distance")
class LogDistancePropagation(PropagationModel):
    """Distance-dependent loss with deterministic per-pair shadowing.

    Parameters
    ----------
    exponent:
        Path-loss exponent: how steeply loss grows with distance
        (free-space ~2, urban 3-4).
    sigma:
        Standard deviation of the log-normal shadowing factor applied to
        each pair's distance (0 disables shadowing).
    cutoff:
        Hard reachability limit as a factor over the nominal range:
        ``max_range = nominal_range * cutoff``.
    """

    PARAMS = {
        "exponent": (3.0, positive_number),
        "sigma": (0.2, non_negative_number),
        "cutoff": (1.25, _cutoff),
    }

    def __init__(self, params: Optional[Mapping[str, object]] = None):
        super().__init__(params)
        self._salt: Optional[int] = None
        self._shadow_cache: Dict[Tuple[str, str], float] = {}

    def bind(self, sim=None, environment=None, mobility=None) -> None:
        super().bind(sim=sim, environment=environment, mobility=mobility)
        if sim is not None:
            # One draw from a named stream seeds every per-pair factor; the
            # factors themselves are hashed, not drawn, so evaluating links
            # in any order (or not at all) leaves all other links untouched.
            self._salt = sim.rng("wireless.shadowing").getrandbits(64)
        self._shadow_cache.clear()

    def max_range(self, nominal_range: float) -> float:
        return nominal_range * self.cutoff

    def _shadow_factor(self, node_a: str, node_b: str) -> float:
        if self.sigma == 0.0:
            return 1.0
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        factor = self._shadow_cache.get(key)
        if factor is None:
            digest = hashlib.sha256(
                f"{self._salt}:{key[0]}:{key[1]}".encode("utf-8")
            ).digest()
            gauss = random.Random(int.from_bytes(digest[:8], "big")).gauss(0.0, self.sigma)
            factor = math.exp(gauss)
            self._shadow_cache[key] = factor
        return factor

    def link_quality(self, sender_xy, receiver_xy, distance, nominal_range, rng, link=("", "")):
        reach = nominal_range * self.cutoff
        if distance > reach:
            # Enforce the max_range contract even for callers that did not
            # prefilter through the spatial index: favourable shadowing must
            # not resurrect links beyond the advertised reach.
            return None
        effective = distance * self._shadow_factor(link[0], link[1])
        if effective >= reach:
            return None
        return (effective / reach) ** self.exponent


@register_propagation("obstacle")
class ObstaclePropagation(PropagationModel):
    """Unit-disk reach filtered by line-of-sight against the environment.

    Parameters
    ----------
    occluded_loss:
        Extra loss probability of an occluded link.  The default 1.0 blocks
        occluded links outright (no reception, no carrier sense); values in
        ``[0, 1)`` model lossy wall penetration instead.

    Without an environment (or with an empty one) the model degrades to
    ``unit_disk`` semantics.  Verdicts are not memoized: endpoints move
    between transmissions, so a cache keyed by exact coordinates measured a
    0.04 % hit ratio on the urban workload while costing more per link than
    the ray test it guarded.
    """

    PARAMS = {
        "occluded_loss": (1.0, lambda value: (
            None
            if isinstance(value, (int, float)) and 0.0 <= value <= 1.0
            else "must be in [0, 1] (1 blocks occluded links outright)"
        )),
    }

    def __init__(self, params: Optional[Mapping[str, object]] = None):
        super().__init__(params)
        self._occludes = None
        #: Ray tests run (reported by metrics()).
        self.occlusion_checks = 0

    def metrics(self) -> Dict[str, float]:
        return {"propagation.occlusion_checks": float(self.occlusion_checks)}

    def bind(self, sim=None, environment=None, mobility=None) -> None:
        super().bind(sim=sim, environment=environment, mobility=mobility)
        # Environments are immutable, so emptiness is decided once here.
        self._occludes = environment.occludes if environment else None

    def link_quality(self, sender_xy, receiver_xy, distance, nominal_range, rng, link=("", "")):
        if distance > nominal_range:
            return None
        occludes = self._occludes
        if occludes is None:
            return 0.0
        self.occlusion_checks += 1
        # Always cast the ray from the endpoint with the smaller id, so both
        # directions of a link get the same verdict even when rounding in
        # the orientation products would break the tie differently.
        if link[0] > link[1]:
            sender_xy, receiver_xy = receiver_xy, sender_xy
        if not occludes(sender_xy[0], sender_xy[1], receiver_xy[0], receiver_xy[1]):
            return 0.0
        if self.occluded_loss >= 1.0:
            return None
        return self.occluded_loss
