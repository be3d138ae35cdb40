"""Delivery-knowledge subsystem: the control-plane state protocols swap.

The framework's contact-start processing is layered::

    trace  →  encounter  →  knowledge  →  transfer selection
    (who meets whom)  (protocol hook)  (what is already delivered)  (what moves)

This module owns the *knowledge* layer. Every protocol that tracks
delivery knowledge (anti-packets, per-bundle immunity tables, cumulative
immunity tables) keeps it in a store here, and :func:`exchange_control`
runs the swap at contact start and charges for it: the paper's overhead
metric bills the full table at every encounter, novel or not.

Which contacts need the swap at all is the contact sweep's business
(:mod:`repro.core.sweepkernel`): its skip path keeps each node's
knowledge as a bit plane and swaps only where the two stores differ; its
sweep-all path runs :func:`exchange_control` at every contact. For the
per-bundle :class:`KnowledgeStore` the skip path swaps on the planes
themselves: it bills each store's size, fills each store with the ids its
plane lacks through :meth:`KnowledgeStore.extend`, and purges the copies
they cover in one bulk removal; no control message is built. A
:class:`CumulativeKnowledgeStore` swaps through :func:`exchange_control`
on both paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bundle import BundleId
    from repro.core.node import Node
    from repro.core.simulation import Simulation


class KnowledgeStore:
    """Set-valued delivery knowledge (the i-list).

    Owns the mutable id set and its frozen snapshot, cached until the next
    mutation. All mutations go through :meth:`add` / :meth:`merge` /
    :meth:`reset` so the snapshot can never go stale; protocols must not
    reach into the underlying set.
    """

    __slots__ = ("_known", "_snapshot")

    def __init__(self) -> None:
        self._known: set[BundleId] = set()
        self._snapshot: frozenset[BundleId] | None = None

    def __contains__(self, bid: BundleId) -> bool:
        return bid in self._known

    def __len__(self) -> int:
        return len(self._known)

    def __repr__(self) -> str:
        return f"KnowledgeStore({len(self._known)} ids)"

    @property
    def snapshot(self) -> frozenset[BundleId]:
        """Frozen view of the current knowledge, cached until a mutation."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = frozenset(self._known)
        return snap

    def add(self, bid: BundleId) -> bool:
        """Learn one id. Returns True if it was new."""
        known = self._known
        if bid in known:
            return False
        known.add(bid)
        self._snapshot = None
        return True

    def merge(self, bids: frozenset[BundleId] | set[BundleId]) -> list[BundleId]:
        """Merge a peer's knowledge; return the newly learned ids.

        The common steady-state case — the peer knows nothing new — is a
        C-level subset probe that never walks the set in Python.
        """
        known = self._known
        if not bids or (len(bids) <= len(known) and bids <= known):
            return []
        # Membership filtering first (order-free), then one small sort so
        # the returned list — which callers feed into remove_copy / event
        # scheduling — never exposes set iteration order.
        fresh = [b for b in bids if b not in known]  # lint: disable=DET002
        if fresh:
            fresh.sort()
            known.update(fresh)
            self._snapshot = None
        return fresh

    def extend(self, fresh: list[BundleId]) -> None:
        """Learn ids the store lacks, in the order given.

        :meth:`merge` without its filter and its sort: the contact sweep's
        plane swap already knows which ids are new and lists them sorted,
        so the set is filled in the order :meth:`merge` would fill it.
        """
        self._known.update(fresh)
        self._snapshot = None

    def reset(self) -> None:
        """Forget everything (reboot state loss — see :mod:`repro.faults`)."""
        self._known.clear()
        self._snapshot = None


class CumulativeKnowledgeStore:
    """Per-flow cumulative-acknowledgment tables.

    The cumulative-immunity enhancement keeps one dominating table per
    flow (``{flow: highest contiguous delivered seq}``) instead of one id
    per bundle.
    """

    __slots__ = ("tables",)

    def __init__(self) -> None:
        #: flow id -> highest seq such that bundles 1..seq are delivered
        self.tables: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.tables)

    def __repr__(self) -> str:
        return f"CumulativeKnowledgeStore({len(self.tables)} flows)"

    def seq_for(self, flow: int) -> int:
        """Highest acknowledged seq of ``flow`` (0 when unknown)."""
        return self.tables.get(flow, 0)

    def covers(self, bid: BundleId) -> bool:
        return bid.seq <= self.tables.get(bid.flow, 0)

    def advance(self, flow: int, seq: int) -> bool:
        """Adopt a table if it dominates ours. Returns True if it did."""
        if seq <= self.tables.get(flow, 0):
            return False
        self.tables[flow] = seq
        return True

    def reset(self) -> None:
        """Forget every table (reboot state loss — see :mod:`repro.faults`)."""
        self.tables.clear()


def exchange_control(sim: Simulation, node_a: Node, node_b: Node, now: float) -> None:
    """The knowledge-swap layer of contact start.

    Both payloads' *consumed* fields (delivered_ids, cumulative tables,
    extras) are snapshots of pre-exchange state, then delivered — a
    symmetric, simultaneous swap. When neither protocol carries control
    state (pure epidemic, coins-only P-Q) the payloads would be inert and
    nothing runs. Signaling accounting for protocol-specific state lives
    here, behind the store — the contact session never sees control units.
    """
    proto_a = node_a.protocol
    proto_b = node_b.protocol
    if not (proto_a.exchanges_control or proto_b.exchanges_control):
        return
    msg_a = proto_a.control_payload(now)
    msg_b = proto_b.control_payload(now)
    units_a = proto_a.control_units(msg_a)
    units_b = proto_b.control_units(msg_b)
    if units_a or units_b:
        signaling = sim.metrics.signaling
        if units_a:
            signaling.add(proto_a.control_kind, units_a)
            node_a.counters.control_units_sent += units_a
        if units_b:
            signaling.add(proto_b.control_kind, units_b)
            node_b.counters.control_units_sent += units_b
    proto_b.receive_control(msg_a, now)
    proto_a.receive_control(msg_b, now)


__all__ = ["CumulativeKnowledgeStore", "KnowledgeStore", "exchange_control"]
