"""Guarded NumPy access and array-backend selection.

The hot paths of the simulator (mobility trajectory evaluation, grid
snapshot rebuilds, per-link propagation filtering) have two implementations:
the scalar reference code, which works on a bare Python install, and an
array-native path over contiguous NumPy arrays keyed by node index.  Both
produce byte-identical results — the scalar code is the oracle the array
path is tested against — so which one runs is purely a performance choice.

This module is the single place that imports NumPy, and it does so *on the
first* :func:`numpy_or_none` *call*, not when :mod:`repro` is imported: most
runs never vectorize anything (the grid index goes vectorized only above
``ARRAY_SCAN_THRESHOLD`` candidates per query), and every pool worker,
cluster worker and CLI call would otherwise pay NumPy's import time and
resident memory for nothing.  The contract for callers:

* *Selecting* a path — :func:`numpy_available`, :func:`resolve_array_backend`
  — and *recording* it — :func:`numpy_version` — never load NumPy; they ask
  the import system whether it is installed.  Constructors and config
  validation may call these freely.
* :func:`numpy_or_none` is for the code that is about to build or consume an
  array (``positions_array``, a vectorized snapshot or scan, batched link
  evaluation).  Call it there, not in ``__init__``, and do not keep the
  module on an instance: the call is a global read once NumPy is loaded.

Everything else asks :func:`resolve_array_backend` which path to take:

``"auto"`` (default)
    NumPy when importable, scalar otherwise.  Silent either way — an
    environment without NumPy is a supported configuration, not an error.
``"numpy"``
    The array path.  When NumPy is *not* importable this degrades to
    scalar with a single :class:`RuntimeWarning` (warned once per process,
    however many mediums are built), so a mis-provisioned environment is
    loud but not fatal.
``"scalar"``
    The reference path, always available.  Used by the equivalence tests
    as the oracle side of every array-vs-scalar assertion.

NumPy is an *optional* dependency (``pip install dapes-repro[perf]``);
importing :mod:`repro` must never require it.
"""

from __future__ import annotations

import functools
import importlib.util
import warnings
from typing import Optional

#: Accepted values of ``ChannelConfig.array_backend``.
ARRAY_BACKENDS = ("auto", "numpy", "scalar")

_NOT_LOADED = object()
# The numpy module once numpy_or_none() has imported it; None when it is not
# importable (tests patch None in to simulate a bare install).
_numpy = _NOT_LOADED

_warned_missing_numpy = False


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
    """Whether the array-native hot path can run here (does not load NumPy).

    Asks the import system until the first :func:`numpy_or_none`; an
    installed NumPy that then fails to import reads unavailable from there on.
    """
    if _numpy is _NOT_LOADED:
        return _numpy_installed()
    return _numpy is not None


@functools.cache
def _numpy_installed() -> bool:
    return importlib.util.find_spec("numpy") is not None


def numpy_version() -> Optional[str]:
    """The installed NumPy version string, or ``None`` without NumPy.

    Recorded in :class:`~repro.experiments.store.ResultStore` metadata and
    the committed ``BENCH_*.json`` artifacts so cross-backend comparisons
    are visible in ``repro-experiments diff``.  Read from the distribution
    metadata, so recording it does not load NumPy.
    """
    if not numpy_available():
        return None
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:  # importable but not pip-installed
        return str(numpy_or_none().__version__)


def resolve_array_backend(choice: str = "auto") -> str:
    """Resolve an ``array_backend`` selection to ``"numpy"`` or ``"scalar"``.

    An explicit ``"numpy"`` request without NumPy installed falls back to
    ``"scalar"`` and warns once per process; ``"auto"`` falls back silently.
    """
    global _warned_missing_numpy
    if choice not in ARRAY_BACKENDS:
        raise ValueError(
            f"array_backend must be one of {ARRAY_BACKENDS}, got {choice!r}"
        )
    if choice == "scalar":
        return "scalar"
    if numpy_available():
        return "numpy"
    if choice == "numpy" and not _warned_missing_numpy:
        _warned_missing_numpy = True
        warnings.warn(
            "array_backend='numpy' requested but NumPy is not importable; "
            "falling back to the scalar reference path (results are "
            "identical, only slower). Install the 'perf' extra to enable "
            "the array-native hot path.",
            RuntimeWarning,
            stacklevel=2,
        )
    return "scalar"
