"""Reproduction of DAPES (ICDCS 2020).

DAPES is a data-centric peer-to-peer file-sharing protocol for off-the-grid
scenarios running on top of Named Data Networking (NDN).  This package
provides:

* ``repro.simulation`` — a deterministic discrete-event simulation engine.
* ``repro.mobility`` — node mobility models (random direction, random
  waypoint, scripted traces).
* ``repro.wireless`` — an IEEE 802.11b-like broadcast medium with range,
  loss and collision modelling.
* ``repro.crypto`` — simulated signatures, digests, Merkle trees and trust
  anchors.
* ``repro.ndn`` — an NDN forwarding stack (names, Interest/Data, CS, PIT,
  forwarder, strategies).
* ``repro.core`` — the DAPES protocol itself (namespace, metadata, bitmaps,
  discovery, RPF strategies, PEBA, multi-hop forwarding roles).
* ``repro.ip`` / ``repro.manet`` / ``repro.baselines`` — the IP-based
  comparison stack: DSDV, DSR, a TCP-like transport, a Pastry-style DHT and
  the Bithoc / Ekta baseline applications.
* ``repro.experiments`` — scenario builders and runners that regenerate every
  figure and table of the paper's evaluation.

Quickstart::

    from repro.experiments import ExperimentConfig, run_experiment, to_text

    config = ExperimentConfig.small()
    result = run_experiment("fig10", config, axes={"wifi_range": (60.0,)})
    print(to_text(result))

or, from the command line (also installed as ``repro-experiments``)::

    python -m repro.experiments run fig10 --preset small --workers 4
"""

from repro._version import __version__

__all__ = ["__version__"]
