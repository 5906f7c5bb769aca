"""Deterministic discrete-event simulation engine.

All protocol behaviour in this repository (DAPES, NDN forwarding, MANET
routing, the wireless medium) is expressed as events scheduled on a single
:class:`Simulator`.  The engine is deterministic for a given seed: random
decisions are drawn from named :class:`~repro.simulation.random_streams.RandomStreams`
so that adding a new consumer of randomness does not perturb existing ones.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": ("EventHandle", "Simulator", "SimulationError"),
    "random_streams": ("RandomStreams",),
    "timers": ("PeriodicTimer", "Timer"),
})
