"""Anti-packet substrate shared by P-Q epidemic and the immunity protocols.

An *anti-packet* (a.k.a. per-bundle immunity table) is the destination's
proof that a bundle arrived — "infection and vaccination" in the paper's
epidemiology analogy. The substrate maintains the node's delivery-knowledge
set (the i-list), spreads it at contact start, purges matching copies, and
refuses to re-accept vaccinated bundles.

P-Q epidemic and epidemic-with-immunity share this machinery — which is why
the paper observes identical delay for P-Q(P=Q=1) and immunity in the
trace study. They differ in the signaling they charge for (P-Q's
anti-packets vs immunity's per-bundle tables; both proportional to load) and
in P-Q's transmission coin.

The i-list itself lives in a :class:`~repro.core.knowledge.KnowledgeStore`,
which owns the mutable set and its frozen snapshot. This protocol layer
supplies policy only — what to purge when knowledge arrives, and what the
dissemination costs.
"""

from __future__ import annotations

from repro.core.bundle import BundleId
from repro.core.knowledge import KnowledgeStore
from repro.core.protocols.base import ControlMessage, Protocol


class AntiPacketProtocol(Protocol):
    """Base for protocols that track and spread per-bundle delivery knowledge."""

    #: Counter kind used for signaling accounting; subclasses override.
    control_kind = "anti_packet"
    #: Buffer slots one stored table/anti-packet consumes. Tables share the
    #: node's storage in the paper's model (its immunity occupancy analysis);
    #: 0.1 ≈ a table an order of magnitude smaller than a bundle.
    table_slot_fraction = 0.1

    def __init__(self, node, sim, rng) -> None:  # type: ignore[no-untyped-def]
        super().__init__(node, sim, rng)
        self.knowledge = KnowledgeStore()

    def _sync_table_storage(self) -> None:
        self.sim.set_control_storage(
            self.node, len(self.knowledge) * self.table_slot_fraction
        )

    # ------------------------------------------------------------- knowledge

    def knows_delivered(self, bid: BundleId) -> bool:
        return bid in self.knowledge

    def learn_delivered(self, bids: frozenset[BundleId] | set[BundleId], now: float) -> int:
        """Merge delivery knowledge and purge matching live copies.

        Returns:
            Number of newly learned bundle ids.
        """
        fresh = self.knowledge.merge(bids)
        if not fresh:
            return 0
        node = self.node
        self.sim.remove_copies(
            node, [bid for bid in fresh if node.get_copy(bid) is not None], "immunized"
        )
        self._sync_table_storage()
        return len(fresh)

    def on_knowledge_wiped(self, now: float) -> frozenset[BundleId]:
        """Reboot amnesia: drop the i-list (and its stored-table footprint)."""
        forgotten = self.knowledge.snapshot
        self.knowledge.reset()
        self._sync_table_storage()
        return forgotten

    # ---------------------------------------------------------- control plane

    def control_payload(self, now: float) -> ControlMessage:
        return ControlMessage(sender=self.node.id, delivered_ids=self.knowledge.snapshot)

    def receive_control(self, msg: ControlMessage, now: float) -> None:
        self.learn_delivered(msg.delivered_ids, now)

    def control_units(self, msg: ControlMessage) -> int:
        """Anti-packet dissemination cost: the full list travels each contact.

        This is the paper's complaint about per-bundle immunity — "the
        number of immunity tables transmitted is proportional to the load"
        — and the baseline for the cumulative table's order-of-magnitude
        improvement.
        """
        return len(msg.delivered_ids)

    # ------------------------------------------------------------ destination

    def on_delivered(self, bundle, now: float) -> None:  # type: ignore[no-untyped-def]
        self.knowledge.add(bundle.bid)
        self._sync_table_storage()
