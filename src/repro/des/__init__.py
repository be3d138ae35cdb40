"""Discrete-event simulation substrate.

This package provides the minimal, dependency-free machinery every simulation
in :mod:`repro` is built on:

* :class:`~repro.des.engine.Engine` — the one event calendar: a clock and a
  binary heap of ``[time, seq, action, args, alive]`` entries with lazy
  cancellation, whose run loop merges a time-sorted stream (the contact
  starts) with the heap by the stream rule stated in
  :mod:`repro.des.engine`. Both DES tiers drive it: the event tier through
  :meth:`~repro.des.engine.Engine.run`, the SoA sweep kernel through its own
  loop over the same heap.
* :mod:`~repro.des.rng` — reproducible, independently-seeded random streams
  derived from a single master seed via ``numpy.random.SeedSequence``.

The engine is deliberately small: the DTN simulation in :mod:`repro.core`
drives almost everything from contact starts, so the substrate only needs
correct ordering, cancellation and determinism — all of which are covered by
property-based tests in ``tests/des``.
"""

from repro.des.engine import Engine
from repro.des.rng import RngHub, derive_seed, spawn_streams

__all__ = [
    "Engine",
    "RngHub",
    "derive_seed",
    "spawn_streams",
]
