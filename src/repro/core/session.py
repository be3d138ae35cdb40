"""Contact session: what happens while two nodes are within range.

The paper's encounter semantics, which the contact sweep
(:mod:`repro.core.sweepkernel`) implements:

* The pair can move ``floor(duration / bundle_tx_time)`` bundles during the
  contact (Section IV's worked example: a 314 s encounter carries 3 bundles
  at 100 s each). With per-node transmit times the link runs at the pace of
  the slower radio (:meth:`~repro.core.simulation.SimulationConfig.pair_tx_time`).
  The link is half-duplex — one bundle in flight at a time —
  and the **lower-ID node transmits first** (the paper's collision-avoidance
  rule); the higher-ID node uses whatever budget remains.
* At contact start the control plane is exchanged "for free": summary
  vectors plus protocol-specific state (anti-packets / immunity tables).
  Free w.r.t. the transfer budget, but *counted* by the signaling metric.
* Each transfer is planned against the *current* state of both nodes (the
  summary-vector view refreshed within the encounter) and re-validated when
  it completes ``bundle_tx_time`` later — a copy can disappear mid-flight
  (TTL expiry, eviction by a concurrent contact, immunity purge), in which
  case the slot is consumed but wasted.
* Candidate order: bundles destined for the peer first, then oldest-stored
  first. P-Q coin flips are remembered per (direction, bundle) for the
  whole contact — a failed flip skips the bundle until the nodes part.

Planning honesty: a sender only schedules a transfer the receiver can
actually take (free slot, evictable victim, or the receiver is the bundle's
destination); anti-entropy gives it that knowledge. If neither side has a
transmittable bundle the session goes idle for the remainder of the contact
(new arrivals via *concurrent* contacts do not re-awaken it — a documented
simplification that only matters when contacts overlap heavily).

This module keeps the transfer-free layers every contact runs
(:func:`contact_bookkeeping`); the slot clock, candidate order and
completion re-validation live in the sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.knowledge import exchange_control

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import Node
    from repro.core.simulation import Simulation


def contact_bookkeeping(sim: Simulation, node_a: Node, node_b: Node, now: float) -> None:
    """The transfer-free layers of contact start: encounter → knowledge.

    Encounter layer: the ``on_encounter_started`` hook, node a's then node
    b's; a protocol that keeps encounter timing (dynamic TTL) notes the
    encounter there. Knowledge layer: the control-plane swap with its
    signaling accounting (:func:`repro.core.knowledge.exchange_control`).
    Plus the summary vector each way that every protocol pays regardless
    of control state.

    This is everything a zero-transfer contact does; the sweep-all path
    calls it for every contact it fires. (The skip path never calls it: it
    settles the futile contacts' accounting in bulk at end of run.)
    """
    node_a.protocol.on_encounter_started(node_b, now)
    node_b.protocol.on_encounter_started(node_a, now)
    exchange_control(sim, node_a, node_b, now)
    # One summary vector each way, every protocol — accounted inline
    # (this runs for every contact, exchange or not)
    sim.metrics.signaling.summary_vector += 2
    node_a.counters.control_units_sent += 1
    node_b.counters.control_units_sent += 1
