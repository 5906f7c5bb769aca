"""Deterministic discrete-event simulation engine.

All protocol behaviour in this repository (DAPES, NDN forwarding, MANET
routing, the wireless medium) is expressed as events scheduled on a single
:class:`Simulator`.  The engine is deterministic for a given seed: random
decisions are drawn from named :class:`~repro.simulation.random_streams.RandomStreams`
so that adding a new consumer of randomness does not perturb existing ones.
"""

from repro.simulation.engine import EventHandle, Simulator, SimulationError
from repro.simulation.random_streams import RandomStreams
from repro.simulation.timers import PeriodicTimer, Timer

__all__ = [
    "EventHandle",
    "PeriodicTimer",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timer",
]
