"""Session transfer planning: which bundle crosses the link next.

The contact session asks its planner for the next transfer each time a slot
opens. The paper's candidate rule (session module docstring): lower-ID
sender preferred; within a sender, bundles destined for the peer first, then
oldest-stored first, ties broken by bundle id; a bundle is a candidate only
if it is unexpired, the receiver lacks it, neither side knows it was
delivered, the receiver can take it, and its P-Q coin has not failed this
contact.

The production :class:`IncrementalPlanner` caches, per direction, the
sender's copies in candidate order and invalidates the cache by *store
epoch* (a counter every buffer mutation bumps — see
:attr:`repro.core.node.Node.store_epoch`). Per slot it walks the cached
order and applies the volatile predicates (expiry, peer/knowledge state,
receiver capacity — all functions of current node state, none consuming
randomness) lazily until the first acceptable bundle, instead of
re-filtering and re-sorting both buffers. Knowledge changes (anti-packets,
immunity tables) never reorder candidates — they only veto them — so they
are handled entirely by the lazy predicates.

It calls ``should_offer`` on the same bundles in the same order as the
rebuild-filter-sort specification, so probabilistic protocols (P-Q coins)
consume their RNG stream identically. That specification lives in the
test suite (``tests/oracles/reference_sim.py``), whose differential
ladder compares the two pick for pick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bundle import StoredBundle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import Node
    from repro.core.session import ContactSession


def candidate_key(sb: StoredBundle, receiver_id: int) -> tuple[int, float, object]:
    """Candidate order: peer-destined first, then oldest stored, then id."""
    return (
        0 if sb.bundle.destination == receiver_id else 1,
        sb.stored_at,
        sb.bid,
    )


class IncrementalPlanner:
    """Epoch-invalidated cached candidate order + lazy predicates."""

    __slots__ = ("session", "_epoch_ab", "_order_ab", "_epoch_ba", "_order_ba")

    def __init__(self, session: ContactSession) -> None:
        self.session = session
        # per-direction cache: the sender's copies in candidate order,
        # valid while the sender's store epoch is unchanged
        self._epoch_ab = -1
        self._order_ab: list[StoredBundle] = []
        self._epoch_ba = -1
        self._order_ba: list[StoredBundle] = []

    def _order(self, sender: Node, receiver: Node, forward: bool) -> list[StoredBundle]:
        epoch = sender.store_epoch
        if forward:
            if epoch != self._epoch_ab:
                self._order_ab = self._rebuild(sender, receiver)
                self._epoch_ab = epoch
            return self._order_ab
        if epoch != self._epoch_ba:
            self._order_ba = self._rebuild(sender, receiver)
            self._epoch_ba = epoch
        return self._order_ba

    _EMPTY: list[StoredBundle] = []

    @classmethod
    def _rebuild(cls, sender: Node, receiver: Node) -> list[StoredBundle]:
        origin = sender.origin
        relay = sender.relay.entries_view()
        if not origin:
            if not relay:
                return cls._EMPTY  # shared: planners only ever iterate it
            order = list(relay.values())
        elif not relay:
            order = list(origin.values())
        else:
            order = [*origin.values(), *relay.values()]
        if len(order) > 1:
            rid = receiver.id
            # candidate_key, inlined (one call per element saved)
            order.sort(
                key=lambda sb: (
                    0 if sb.bundle.destination == rid else 1,
                    sb.stored_at,
                    sb.bundle.bid,
                )
            )
        return order

    def _first_offer(
        self, sender: Node, receiver: Node, order: list[StoredBundle], now: float
    ) -> StoredBundle | None:
        """First bundle in ``order`` passing all predicates and its coin.

        None of the predicates consumes randomness, so evaluating them
        lazily (interleaved with ``should_offer`` calls) visits the same
        bundles in the same order as filter-everything-then-sort.
        """
        session = self.session
        coin_rejected = session._coin_rejected or ()
        sender_id = sender.id
        sender_protocol = sender.protocol
        receiver_protocol = receiver.protocol
        r_relay = receiver.relay.entries_view()
        r_origin = receiver.origin
        r_delivered = receiver.delivered
        for sb in order:
            bid = sb.bundle.bid  # the .bid property call, inlined
            if now >= sb.expiry:  # is_expired, inlined
                continue
            if (sender_id, bid) in coin_rejected:
                continue
            if bid in r_relay or bid in r_origin or bid in r_delivered:
                continue  # receiver.has_copy, inlined
            if receiver_protocol.knows_delivered(bid) or sender_protocol.knows_delivered(bid):
                continue
            if not receiver_protocol.can_accept(sb.bundle, now):
                continue
            if sender_protocol.should_offer(sb, receiver, now):
                return sb
            rejected = session._coin_rejected
            if rejected is None:
                rejected = session._coin_rejected = set()
            rejected.add((sender_id, bid))
            coin_rejected = rejected
        return None

    def plan(self, now: float) -> tuple[Node, Node, StoredBundle] | None:
        """Next transfer: lower-ID sender preferred, coin flips cached."""
        session = self.session
        node_a, node_b = session.node_a, session.node_b
        sb = self._first_offer(node_a, node_b, self._order(node_a, node_b, True), now)
        if sb is not None:
            return node_a, node_b, sb
        sb = self._first_offer(node_b, node_a, self._order(node_b, node_a, False), now)
        if sb is not None:
            return node_b, node_a, sb
        return None

