"""Reference schedule and planner for the simulation's differential ladder.

:class:`ReferenceSimulation` runs the original per-event schedule of
``repro.core.simulation.Simulation``: one contact-start heap event per
contact (never the engine's contact stream), no deferred encounter
history, no zero-transfer shortcut, never the SoA kernel, and — under
faults — the original faults-only contact handler.
Its sessions plan with :class:`ReferencePlanner`, the rebuild-filter-sort
specification of the candidate rule. Production must reproduce this
schedule's :class:`~repro.core.results.RunResult`, node state, event count
and pick sequence exactly, which ``tests/test_ladder.py`` asserts.

:class:`RecordingSimulation` is the production simulation with the pick
log attached: its planner class wraps the production
:class:`~repro.core.planner.IncrementalPlanner`, installed through the
``Simulation._planner_class`` seam.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.planner import IncrementalPlanner, candidate_key
from repro.core.session import ContactSession, contact_bookkeeping
from repro.core.simulation import Simulation

if TYPE_CHECKING:
    from repro.core.bundle import StoredBundle
    from repro.core.node import Node
    from repro.core.results import RunResult


class ReferencePlanner:
    """The slow, obviously-correct planner (the property-test oracle)."""

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
        for sender, receiver in (
            (session.node_a, session.node_b),
            (session.node_b, session.node_a),
        ):
            for sb in self._candidates(sender, receiver, now):
                if sender.protocol.should_offer(sb, receiver, now):
                    return sender, receiver, sb
                rejected = session._coin_rejected
                if rejected is None:
                    rejected = session._coin_rejected = set()
                rejected.add((sender.id, sb.bid))
        return None


def recording(planner_class: type) -> type:
    """``planner_class`` logging each pick and counting calls on its simulation."""

    class Recording(planner_class):  # type: ignore[misc, valid-type]
        __slots__ = ()

        def plan(self, now: float) -> tuple[Node, Node, StoredBundle] | None:
            sim = self.session.sim
            sim.planner_calls += 1
            pick = super().plan(now)
            if pick is not None:
                sender, receiver, sb = pick
                sim.picks.append((now, sender.id, receiver.id, sb.bid))
            return pick

    return Recording


class RecordingSimulation(Simulation):
    """The production simulation, logging its sessions' transfer picks."""

    _planner_class = recording(IncrementalPlanner)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(time, sender_id, receiver_id, bid)`` per planned transfer
        self.picks: list[tuple] = []
        self.planner_calls = 0


class ReferenceSimulation(RecordingSimulation):
    """One event per contact, reference planner, original fault handler."""

    _planner_class = recording(ReferencePlanner)

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
        # pre-run events: the seqs the production stream reserves
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
        tx_time, budget = ContactSession.link_budget(self, contact)
        if not budget:
            return
        ContactSession(self, contact, tx_time, budget)._schedule_next(now)

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
        if self._node_down[contact.a] or self._node_down[contact.b]:
            self.metrics.churn.missed_contacts += 1
            return
        now = contact.start
        nodes = self.nodes
        contact_bookkeeping(self, nodes[contact.a], nodes[contact.b], now)
        tx_time, budget = ContactSession.link_budget(self, contact)
        if not budget:
            return
        session = ContactSession(self, contact, tx_time=tx_time, budget=budget)
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
