"""Discrete-event simulation substrate.

This package provides the minimal, dependency-free machinery every simulation
in :mod:`repro` is built on:

* :class:`~repro.des.engine.Engine` — the one event calendar: a clock and a
  binary heap of ``[time, seq, action, args, alive]`` entries with lazy
  cancellation. The contact sweep (:mod:`repro.core.sweepkernel`) drives it
  with its own loop, merging the trace's contacts with the heap by the
  stream rule stated there.
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
