"""Contact session: what happens while two nodes are within range.

Implements the paper's encounter semantics:

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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bundle import BundleId, StoredBundle
from repro.core.knowledge import exchange_control

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import Node
    from repro.core.simulation import Simulation
    from repro.mobility.contact import Contact


def contact_bookkeeping(sim: Simulation, node_a: Node, node_b: Node, now: float) -> None:
    """The transfer-free layers of contact start: encounter → knowledge.

    Encounter layer: history + the ``on_encounter_started`` hook.
    Knowledge layer: the control-plane swap with its signaling accounting
    (:func:`repro.core.knowledge.exchange_control`). Plus the summary
    vector each way that every protocol pays regardless of control state.

    This is everything a zero-transfer contact does; the event tier's
    contact handler calls it for every contact it processes. (The SoA
    kernel never calls it: it replays history and settles the futile
    contacts' accounting in bulk at end of run.)
    """
    node_a.history.note_encounter(now)
    node_a.protocol.on_encounter_started(node_b, now)
    node_b.history.note_encounter(now)
    node_b.protocol.on_encounter_started(node_a, now)
    exchange_control(sim, node_a, node_b, now)
    # One summary vector each way, every protocol — accounted inline
    # (this runs for every contact, exchange or not)
    sim.metrics.signaling.summary_vector += 2
    node_a.counters.control_units_sent += 1
    node_b.counters.control_units_sent += 1


class ContactSession:
    """One encounter's exchange state machine.

    Transfer *selection* lives in the session's planner (see
    :mod:`repro.core.planner`); the session owns the slot clock, the
    per-contact coin cache, and completion-time re-validation. The
    simulation's contact-start handler runs the encounter bookkeeping
    (:func:`contact_bookkeeping`) and builds a session only for contacts
    whose link budget is non-zero.
    """

    @staticmethod
    def link_budget(sim: Simulation, contact: Contact) -> tuple[float, int]:
        """(per-bundle transfer time, whole-bundle slot count) of a contact.

        The transfer time is the slower of the two radios when
        ``bundle_tx_time`` is per-node (heterogeneous devices); the budget
        is ``floor(duration / tx_time)`` (int() truncation == floor for a
        non-negative quotient). The simulation's zero-budget gate reads
        :func:`~repro.mobility.contact.zero_transfer_mask`, which is
        bit-identical to ``budget == 0`` under this formula.
        """
        tx_time = sim.link_tx_time(contact.a, contact.b)
        return tx_time, int((contact.end - contact.start) / tx_time)

    def __init__(
        self, sim: Simulation, contact: Contact, tx_time: float, budget: int
    ) -> None:
        self.sim = sim
        self.contact = contact
        self.node_a = sim.nodes[contact.a]  # lower id — transmits first
        self.node_b = sim.nodes[contact.b]
        self.tx_time = tx_time
        self.budget = budget
        self.t_cursor = contact.start
        self.idle = False
        #: disruption model active (see :mod:`repro.faults`) — gates every
        #: per-slot liveness check so unfaulted runs pay one attribute load
        self.faulted = sim.faults is not None
        #: True once a mid-contact link interruption severed this session
        self.severed = False
        #: the pair's ``(crash_count_a, crash_count_b)`` at session start;
        #: any endpoint crash afterwards permanently tears the session down
        #: (stamped by the simulation's contact-start handler under faults)
        self.crash_epoch: tuple[int, int] | None = None
        #: (sender_id, bid) pairs whose P-Q coin failed this contact;
        #: allocated by the planner on the first failed flip
        self._coin_rejected: set[tuple[int, BundleId]] | None = None
        self.transfers_completed = 0
        #: created on first use — sub-``tx_time`` contacts (budget 0)
        #: never plan, and at scale they are the majority of encounters
        self.planner = None

    # ------------------------------------------------------------- disruption

    def _on_severed(self) -> None:
        """Pre-drawn mid-contact link interruption: the radios lose sync."""
        self.severed = True

    def _link_alive(self) -> bool:
        """Both endpoints up, link unsevered, and no crash since start."""
        if self.severed:
            return False
        sim = self.sim
        contact = self.contact
        if sim._node_down[contact.a] or sim._node_down[contact.b]:
            return False
        epoch = self.crash_epoch
        return epoch is None or epoch == (
            sim._crash_count[contact.a],
            sim._crash_count[contact.b],
        )

    # --------------------------------------------------------------- planning

    def _schedule_next(self, now: float) -> None:
        if self.budget <= 0:
            return
        if self.faulted and not self._link_alive():
            return
        slot_end = self.t_cursor + self.tx_time
        if slot_end > self.contact.end + 1e-9:
            return
        planner = self.planner
        if planner is None:
            planner = self.planner = self.sim._planner_class(self)
        pick = planner.plan(now)
        if pick is None:
            self.idle = True
            return
        sender, receiver, sb = pick
        self.t_cursor = slot_end
        self.sim.engine.at(
            slot_end, self._on_transfer_complete, sender, receiver, sb
        )

    # -------------------------------------------------------------- completion

    def _on_transfer_complete(
        self, sender: Node, receiver: Node, sb: StoredBundle
    ) -> None:
        now = self.sim.engine.now
        self.budget -= 1
        bid = sb.bid
        if self.faulted:
            if not self._link_alive():
                # The link died while the bits were in flight: the slot was
                # spent (partial transfer charged) but nothing arrives, and
                # the session is over — no reschedule.
                self.sim.metrics.churn.interrupted_transfers += 1
                return
            if self.sim._transfer_failed():
                # I.i.d. transfer failure: the slot is charged, the link
                # survives, and the planner may retry the same bundle.
                self.sim.metrics.churn.failed_transfers += 1
                self._schedule_next(now)
                return
        # Re-validate the receiver side: it may have obtained the bundle (or
        # learned it was delivered) through a concurrent contact mid-flight.
        if receiver.has_copy(bid) or receiver.protocol.knows_delivered(bid):
            self.sim.metrics.on_wasted_slot()
            self._schedule_next(now)
            return
        # Sender side: the transmission started bundle_tx_time ago, so the
        # bits are on the air even if the stored copy expired or was evicted
        # mid-flight — the transfer still completes. The one exception is
        # delivery knowledge: a sender that learned the bundle already
        # arrived aborts the (now pointless) transmission.
        if sender.protocol.knows_delivered(bid):
            self.sim.metrics.on_wasted_slot()
            self._schedule_next(now)
            return
        still_held = sender.get_copy(bid) is sb
        if still_held and not sender.protocol.confirm_transfer(sb, receiver, now):
            self.sim.metrics.on_wasted_slot()
            self._schedule_next(now)
            return
        if still_held:
            # Sender-side bookkeeping first: EC increments before the
            # receiver's copy inherits the value (the paper's EC example).
            sender.protocol.on_transmitted(sb, receiver, now)
            ec_for_receiver = sb.ec
        else:
            # The copy vanished mid-flight: no renewal/ageing on the sender,
            # but the receiver's copy still carries the incremented count.
            ec_for_receiver = sb.ec + 1
        sender.counters.bundles_sent += 1
        self.sim.metrics.on_transmission()
        self.transfers_completed += 1
        if sb.bundle.destination == receiver.id:
            self.sim.deliver(receiver, sb.bundle, now, via=sender.id)
        else:
            stored = self.sim.store_received_copy(
                receiver, sb.bundle, ec_for_receiver, now, sender_copy=sb
            )
            if not stored:
                receiver.counters.rejections += 1
                self.sim.metrics.on_wasted_slot()
        self._schedule_next(now)
