"""Guarded NumPy access.

One call in the simulator builds a NumPy array:
:meth:`~repro.mobility.base.MobilityModel.positions_array`, which converts
the scalar ``positions_at`` answer into an ``(N, 2)`` array.  No trial calls
it — mobility, the grid index and the medium's link evaluation each have one
scalar path (CHANGES.md says why their array twins were deleted) — so a run
never needs NumPy; the benchmark's probe pass and direct callers do.

This module is the single place that imports NumPy, and it does so *on the
first* :func:`numpy_or_none` *call*, not when :mod:`repro` is imported:
every trial, pool worker, cluster worker and CLI call would otherwise pay
NumPy's import time and resident memory for nothing.  The contract for
callers:

* :func:`numpy_available` never loads NumPy; it asks the import system
  whether it is installed.
* :func:`numpy_or_none` is for the code that is about to build an array.
  Call it there, not in ``__init__``, and do not keep the module on an
  instance: the call is a global read once NumPy is loaded.

NumPy is an *optional* dependency (``pip install dapes-repro[perf]``);
importing :mod:`repro` must never require it.
"""

from __future__ import annotations

import functools
import importlib.util

_NOT_LOADED = object()
# The numpy module once numpy_or_none() has imported it; None when it is not
# importable (tests patch None in to simulate a bare install).
_numpy = _NOT_LOADED


def numpy_or_none():
    """The :mod:`numpy` module (imported on the first call), or ``None``."""
    global _numpy
    if _numpy is _NOT_LOADED:
        try:  # NumPy is optional: every scalar path works without it.
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
    return _numpy


def numpy_available() -> bool:
    """Whether ``positions_array`` can run here (does not load NumPy).

    Asks the import system until the first :func:`numpy_or_none`; an
    installed NumPy that then fails to import reads unavailable from there on.
    """
    if _numpy is _NOT_LOADED:
        return _numpy_installed()
    return _numpy is not None


@functools.cache
def _numpy_installed() -> bool:
    return importlib.util.find_spec("numpy") is not None
