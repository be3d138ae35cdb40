"""Reference schedule, session and planner for the differential ladder.

:class:`ReferenceSimulation` runs the original per-event schedule of
``repro.core.simulation.Simulation``: one contact-start heap event per
contact (never the contact sweep), no zero-transfer shortcut, one
``remove_copy`` per purged or crash-wiped copy (never the bulk-removal
frame), and — under faults — the original faults-only contact handler,
which gates every contact live on down flags of its own instead of the
lost-contact mask the sweep uses. Each contact that carries a bundle opens a
:class:`ContactSession`, the original slot state machine, which plans with
:class:`ReferencePlanner`, the rebuild-filter-sort specification of the
candidate rule. Production must reproduce this schedule's
:class:`~repro.core.results.RunResult`, node state, event count and pick
sequence exactly, which ``tests/test_ladder.py`` asserts.

:class:`RecordingSimulation` is the production simulation with the pick
log attached: its sweep (:class:`RecordingKernel`, installed through the
``Simulation._kernel_class`` seam) logs every transfer it plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.session import contact_bookkeeping
from repro.core.simulation import Simulation
from repro.core.sweepkernel import SweepKernel

if TYPE_CHECKING:
    from repro.core.bundle import BundleId, StoredBundle
    from repro.core.node import Node
    from repro.core.results import RunResult
    from repro.mobility.contact import Contact


def candidate_key(sb: StoredBundle, receiver_id: int) -> tuple[int, float, object]:
    """Candidate order: peer-destined first, then oldest stored, then id."""
    return (
        0 if sb.bundle.destination == receiver_id else 1,
        sb.stored_at,
        sb.bid,
    )


class ReferencePlanner:
    """The slow, obviously-correct planner (the property-test oracle).

    Logs each pick and counts its calls on the session's simulation.
    """

    __slots__ = ("session",)

    def __init__(self, session: ContactSession) -> None:
        self.session = session

    def _candidates(
        self, sender: Node, receiver: Node, now: float
    ) -> list[StoredBundle]:
        session = self.session
        coin_rejected = session._coin_rejected or ()
        out: list[StoredBundle] = []
        for sb in sender.sendable():
            bid = sb.bid
            if sb.is_expired(now):
                continue  # expiry event fires at the same instant; skip now
            if (sender.id, bid) in coin_rejected:
                continue
            if receiver.has_copy(bid):
                continue
            if receiver.protocol.knows_delivered(bid) or sender.protocol.knows_delivered(bid):
                continue
            if not receiver.protocol.can_accept(sb.bundle, now):
                continue
            out.append(sb)
        rid = receiver.id
        out.sort(key=lambda sb: candidate_key(sb, rid))
        return out

    def plan(self, now: float) -> tuple[Node, Node, StoredBundle] | None:
        """Next transfer: lower-ID sender preferred, coin flips cached."""
        session = self.session
        sim = session.sim
        sim.planner_calls += 1
        for sender, receiver in (
            (session.node_a, session.node_b),
            (session.node_b, session.node_a),
        ):
            for sb in self._candidates(sender, receiver, now):
                if sender.protocol.should_offer(sb, receiver, now):
                    sim.picks.append((now, sender.id, receiver.id, sb.bid))
                    return sender, receiver, sb
                rejected = session._coin_rejected
                if rejected is None:
                    rejected = session._coin_rejected = set()
                rejected.add((sender.id, sb.bid))
        return None


class ContactSession:
    """One encounter's exchange state machine (the reference schedule's).

    The session owns the slot clock, the per-contact coin cache, and
    completion-time re-validation; its :class:`ReferencePlanner` picks
    each transfer. The reference's contact handlers open one only for a
    contact whose link budget is non-zero.
    """

    def __init__(self, sim: ReferenceSimulation, contact: Contact) -> None:
        self.sim = sim
        self.contact = contact
        self.node_a = sim.nodes[contact.a]  # lower id — transmits first
        self.node_b = sim.nodes[contact.b]
        #: the slower radio's per-bundle time, and ``floor(duration /
        #: tx_time)`` whole-bundle slots (int() truncation == floor for a
        #: non-negative quotient)
        self.tx_time = sim.link_tx_time(contact.a, contact.b)
        self.budget = int((contact.end - contact.start) / self.tx_time)
        self.t_cursor = contact.start
        #: disruption model active — gates every per-slot liveness check
        self.faulted = sim.faults is not None
        #: True once a mid-contact link interruption severed this session
        self.severed = False
        #: the pair's ``(crash_count_a, crash_count_b)`` at session start;
        #: any endpoint crash afterwards permanently tears the session down
        #: (stamped by the faulted contact handler)
        self.crash_epoch: tuple[int, int] | None = None
        #: (sender_id, bid) pairs whose P-Q coin failed this contact
        self._coin_rejected: set[tuple[int, BundleId]] | None = None
        self.planner = ReferencePlanner(self)

    # ------------------------------------------------------------- disruption

    def _on_severed(self) -> None:
        """Pre-drawn mid-contact link interruption: the radios lose sync."""
        self.severed = True

    def _link_alive(self) -> bool:
        """Link unsevered, and no endpoint crash since the session began.

        Both endpoints were up when it began (a contact with a down
        endpoint never starts), so an unchanged crash epoch means both are
        still up.
        """
        if self.severed:
            return False
        crashes = self.sim._crash_count
        contact = self.contact
        return self.crash_epoch == (crashes[contact.a], crashes[contact.b])

    # --------------------------------------------------------------- planning

    def _schedule_next(self, now: float) -> None:
        if self.budget <= 0:
            return
        if self.faulted and not self._link_alive():
            return
        slot_end = self.t_cursor + self.tx_time
        if slot_end > self.contact.end + 1e-9:
            return
        pick = self.planner.plan(now)
        if pick is None:
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
        if sb.bundle.destination == receiver.id:
            self.sim.deliver(receiver, sb.bundle, now)
        else:
            stored = self.sim.store_received_copy(
                receiver, sb.bundle, ec_for_receiver, now, sender_copy=sb
            )
            if not stored:
                receiver.counters.rejections += 1
                self.sim.metrics.on_wasted_slot()
        self._schedule_next(now)


class RecordingKernel(SweepKernel):
    """The production sweep, logging each transfer it plans on its simulation."""

    __slots__ = ()

    def _first_offer(
        self, rec, sender: Node, receiver: Node, now: float, want: int
    ) -> StoredBundle | None:
        sb = super()._first_offer(rec, sender, receiver, now, want)
        if sb is not None:
            self.sim.picks.append((now, sender.id, receiver.id, sb.bid))
        return sb

    def _first_offer_pure(
        self, sender_id: int, receiver: Node, want: int
    ) -> StoredBundle | None:
        sb = super()._first_offer_pure(sender_id, receiver, want)
        if sb is not None:
            self.sim.picks.append((self._engine.now, sender_id, receiver.id, sb.bid))
        return sb


class RecordingSimulation(Simulation):
    """The production simulation, logging its sweep's transfer picks."""

    _kernel_class = RecordingKernel

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(time, sender_id, receiver_id, bid)`` per planned transfer
        self.picks: list[tuple] = []


class ReferenceSimulation(Simulation):
    """One event per contact, reference session and planner, original
    fault handler."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(time, sender_id, receiver_id, bid)`` per planned transfer
        self.picks: list[tuple] = []
        self.planner_calls = 0
        #: per node: down right now (kept by the crash and recovery events)
        self._down = [False] * self.trace.num_nodes

    def remove_copies(self, node: Node, bids: list[BundleId], reason: str) -> None:
        """The per-copy chain that production's bulk-removal frame
        replaces: purges and crash wipes run remove_copy once per copy."""
        for bid in bids:
            self.remove_copy(node, bid, reason)

    def _on_crash(self, node_id: int) -> None:
        if not self._down[node_id]:
            self._down[node_id] = True
            super()._on_crash(node_id)

    def _on_recover(self, node_id: int) -> None:
        if self._down[node_id]:
            self._down[node_id] = False
            super()._on_recover(node_id)

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("Simulation objects are single-use; build a new one")
        self._ran = True
        horizon = self.trace.horizon
        for flow in self.flows:
            if flow.created_at == 0.0:
                self._inject_flow(flow)
            else:
                self.engine.at(flow.created_at, self._inject_flow, flow)
        # one heap event per contact, pushed in trace order after the
        # pre-run events: the seqs the production sweep reserves
        at = self.engine.at
        if self.faults is not None:
            self._schedule_faults(horizon)
            self._draw_link_faults(self.trace.contact_arrays())
            for i, contact in enumerate(self.trace.contacts):
                at(contact.start, self._begin_contact_faulted, i)
        else:
            for contact in self.trace.contacts:
                at(contact.start, self._begin_contact_reference, contact)
        self.engine.run(horizon)
        return self._build_result()

    def _begin_contact_reference(self, contact) -> None:
        """Contact-start orchestration: bookkeeping layers, then the first slot."""
        now = contact.start
        nodes = self.nodes
        contact_bookkeeping(self, nodes[contact.a], nodes[contact.b], now)
        session = ContactSession(self, contact)
        if session.budget:
            session._schedule_next(now)

    def _begin_contact_faulted(self, idx: int) -> None:
        """Contact start under the disruption model (reference schedule).

        The drop coin erases the contact outright; a down endpoint misses
        it (no bookkeeping — the radios never met). Surviving contacts run
        the normal layers, plus a pre-drawn mid-contact severance event and
        the crash-epoch stamp that tears the session down if an endpoint
        crashes mid-encounter.
        """
        contact = self.trace.contacts[idx]
        dropped = self._contact_dropped
        if dropped is not None and dropped[idx]:
            self.metrics.churn.dropped_contacts += 1
            return
        if self._down[contact.a] or self._down[contact.b]:
            self.metrics.churn.missed_contacts += 1
            return
        now = contact.start
        nodes = self.nodes
        contact_bookkeeping(self, nodes[contact.a], nodes[contact.b], now)
        session = ContactSession(self, contact)
        if not session.budget:
            return
        session.crash_epoch = (
            self._crash_count[contact.a],
            self._crash_count[contact.b],
        )
        severed_at = self._contact_severed_at
        if severed_at is not None:
            t = float(severed_at[idx])
            if t < contact.end:
                # Scheduled before the first transfer completion, so at an
                # equal timestamp the severance wins deterministically.
                self.engine.at(t, session._on_severed)
        session._schedule_next(now)
