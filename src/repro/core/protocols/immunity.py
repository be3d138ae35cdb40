"""Epidemic with immunity tables (Mundur et al. 2008) and the cumulative
immunity enhancement (paper Section III).

**Per-bundle immunity**: the destination generates one immunity table per
delivered bundle. Nodes maintain an i-list (the set of tables seen), merge
i-lists at every encounter, purge buffered copies the list covers, and
refuse to re-accept them. Mechanically this is the anti-packet substrate;
what distinguishes the protocol is its signaling bill: the whole i-list
travels at every encounter, so table transmissions grow with load — the
overhead the paper calls out.

**Cumulative immunity (enhancement)**: the table is a cumulative
acknowledgment per flow — "an immunity table with a bundle ID of 30 means
the destination has received bundles 1 to 30". Nodes keep only the
dominating table per flow (redundant tables are discarded), so each
encounter carries at most one table per flow: an order of magnitude less
signaling, and one received table can purge many buffered bundles at once.
The destination advances its table over the longest contiguous delivered
prefix, so out-of-order deliveries are acknowledged once the gap fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bundle import Bundle, BundleId
from repro.core.knowledge import CumulativeKnowledgeStore
from repro.core.protocols.antipacket import AntiPacketProtocol
from repro.core.protocols.base import ControlMessage, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.node import Node
    from repro.core.protocols.base import SimulationServices


class ImmunityEpidemic(AntiPacketProtocol):
    """Per-bundle immunity tables (m-list / i-list)."""

    name = "immunity"
    control_kind = "immunity_table"


@dataclass(frozen=True)
class ImmunityConfig:
    """Factory for :class:`ImmunityEpidemic` (no parameters)."""

    protocol_name = "immunity"

    @property
    def label(self) -> str:
        return "Epidemic with immunity"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> ImmunityEpidemic:
        return ImmunityEpidemic(node, sim, rng)


class CumulativeImmunityEpidemic(Protocol):
    """Enhancement 3: cumulative-acknowledgment immunity tables."""

    name = "cumulative_immunity"
    control_kind = "immunity_table"
    #: One table per flow, same per-table size as per-bundle immunity —
    #: the storage saving is keeping 1 table instead of one per bundle.
    table_slot_fraction = 0.1

    def __init__(self, node, sim, rng) -> None:  # type: ignore[no-untyped-def]
        super().__init__(node, sim, rng)
        self.knowledge = CumulativeKnowledgeStore()
        #: destination-side: delivered seqs per flow, to advance the prefix
        self._delivered_seqs: dict[int, set[int]] = {}

    # ------------------------------------------------------------- knowledge

    @property
    def tables(self) -> dict[int, int]:
        """Flow id -> highest seq such that bundles 1..seq are delivered."""
        return self.knowledge.tables

    def knows_delivered(self, bid: BundleId) -> bool:
        return self.knowledge.covers(bid)

    def _absorb_table(self, flow: int, seq: int, now: float) -> bool:
        """Adopt a table if it dominates ours; purge covered copies.

        Returns True if the table was new information.
        """
        if not self.knowledge.advance(flow, seq):
            return False
        self.sim.set_control_storage(
            self.node, len(self.knowledge) * self.table_slot_fraction
        )
        covered = [
            sb.bid
            for sb in self.node.sendable()
            if sb.bid.flow == flow and sb.bid.seq <= seq
        ]
        self.sim.remove_copies(self.node, covered, "immunized")
        return True

    def on_knowledge_wiped(self, now: float) -> frozenset[BundleId]:
        """Reboot amnesia: drop every cumulative table.

        ``_delivered_seqs`` is destination-side delivery history mirroring
        ``node.delivered``, which reboots never erase (delivered stays
        delivered) — so it survives. Re-infection accounting returns empty:
        a cumulative table covers seq *ranges*, not individual ids, so the
        per-id re-infection counter does not apply to this protocol.
        """
        self.knowledge.reset()
        self.sim.set_control_storage(self.node, 0.0)
        return frozenset()

    # ---------------------------------------------------------- control plane

    def control_payload(self, now: float) -> ControlMessage:
        return ControlMessage(sender=self.node.id, cumulative=dict(self.knowledge.tables))

    def receive_control(self, msg: ControlMessage, now: float) -> None:
        for flow, seq in msg.cumulative.items():
            self._absorb_table(flow, seq, now)

    def control_units(self, msg: ControlMessage) -> int:
        """One table per flow per encounter — the order-of-magnitude saving."""
        return len(msg.cumulative)

    # ------------------------------------------------------------ destination

    def on_delivered(self, bundle: Bundle, now: float) -> None:
        flow = bundle.bid.flow
        seqs = self._delivered_seqs.setdefault(flow, set())
        seqs.add(bundle.bid.seq)
        prefix = self.knowledge.seq_for(flow)
        while (prefix + 1) in seqs:
            prefix += 1
        if prefix > self.knowledge.seq_for(flow):
            self._absorb_table(flow, prefix, now)


@dataclass(frozen=True)
class CumulativeImmunityConfig:
    """Factory for :class:`CumulativeImmunityEpidemic` (no parameters)."""

    protocol_name = "cumulative_immunity"

    @property
    def label(self) -> str:
        return "Epidemic with cumulative immunity"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> CumulativeImmunityEpidemic:
        return CumulativeImmunityEpidemic(node, sim, rng)
