"""Delivery-knowledge subsystem: epoch-versioned control-plane state.

The framework's contact-start processing is layered::

    trace  →  encounter  →  knowledge  →  transfer planner
    (who meets whom)  (protocol hook)  (what is already delivered)  (what moves)

This module owns the *knowledge* layer. Every protocol that tracks
delivery knowledge (anti-packets, per-bundle immunity tables, cumulative
immunity tables) keeps it in a store with a monotonic **knowledge epoch**:
a counter bumped by every mutation of the state a peer's
``receive_control`` consumes. The epoch buys two things:

* **Payload caching** — the store caches the :class:`~repro.core.protocols.base.ControlMessage`
  built from its state and reuses it verbatim while the epoch is
  unchanged. Control payloads are built twice per contact (once per
  direction) and, for the anti-packet family, snapshotting the i-list is
  the dominant per-contact cost at scale; with the cache a node that
  learned nothing since its last encounter pays one attribute load.
* **Exchange elision** — :func:`exchange_control` remembers, per node
  pair, the two epochs at the end of their last control swap. When both
  are unchanged at the next meeting the swap is provably a no-op (both
  sides already hold the union of what they knew), so only the signaling
  *accounting* runs — the paper's overhead metric charges the full table
  transmission at every encounter regardless of novelty.

Both optimizations are bit-identical by construction: the cached message
carries the same frozen snapshots a fresh build would, and an elided swap
is one whose ``receive_control`` would have returned without mutating
anything. The elision is gated on
:attr:`~repro.core.protocols.base.Protocol.epoch_gated_control`, which
subclasses lose automatically when they override a control hook without
re-declaring it (see ``Protocol.__init_subclass__``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bundle import BundleId
    from repro.core.node import Node
    from repro.core.protocols.base import ControlMessage
    from repro.core.simulation import Simulation


class KnowledgeStore:
    """Set-valued delivery knowledge (the i-list) behind a knowledge epoch.

    Owns the mutable id set, its cached frozen snapshot, and the cached
    control payload. All mutations go through :meth:`add` / :meth:`merge`
    so the epoch can never miss a change; protocols must not reach into
    the underlying set.
    """

    __slots__ = ("_known", "_snapshot", "epoch", "message")

    def __init__(self) -> None:
        self._known: set[BundleId] = set()
        self._snapshot: frozenset[BundleId] | None = None
        #: monotonic counter, bumped by every mutation
        self.epoch = 0
        #: cached control payload for the current epoch (maintained by the
        #: owning protocol's ``control_payload``; cleared on mutation)
        self.message: ControlMessage | None = None

    def __contains__(self, bid: BundleId) -> bool:
        return bid in self._known

    def __len__(self) -> int:
        return len(self._known)

    def __repr__(self) -> str:
        return f"KnowledgeStore({len(self._known)} ids, epoch={self.epoch})"

    @property
    def snapshot(self) -> frozenset[BundleId]:
        """Frozen view of the current knowledge, cached per epoch."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = frozenset(self._known)
        return snap

    def _invalidate(self) -> None:
        self.epoch += 1
        self._snapshot = None
        self.message = None

    def add(self, bid: BundleId) -> bool:
        """Learn one id. Returns True if it was new (epoch bumped)."""
        known = self._known
        if bid in known:
            return False
        known.add(bid)
        self._invalidate()
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
            self._invalidate()
        return fresh

    def reset(self) -> None:
        """Forget everything (reboot state loss — see :mod:`repro.faults`).

        The epoch bumps unconditionally, so cached control payloads and
        per-pair exchange memos built against the pre-wipe state can never
        be replayed as current.
        """
        self._known.clear()
        self._invalidate()


class CumulativeKnowledgeStore:
    """Per-flow cumulative-acknowledgment tables behind a knowledge epoch.

    The cumulative-immunity enhancement keeps one dominating table per
    flow (``{flow: highest contiguous delivered seq}``) instead of one id
    per bundle; the epoch bumps whenever any flow's table advances.
    """

    __slots__ = ("tables", "epoch", "message")

    def __init__(self) -> None:
        #: flow id -> highest seq such that bundles 1..seq are delivered
        self.tables: dict[int, int] = {}
        self.epoch = 0
        self.message: ControlMessage | None = None

    def __len__(self) -> int:
        return len(self.tables)

    def __repr__(self) -> str:
        return f"CumulativeKnowledgeStore({len(self.tables)} flows, epoch={self.epoch})"

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
        self.epoch += 1
        self.message = None
        return True

    def reset(self) -> None:
        """Forget every table (reboot state loss — see :mod:`repro.faults`).

        Bumps the epoch unconditionally so cached payloads and per-pair
        exchange memos cannot survive the wipe.
        """
        self.tables.clear()
        self.epoch += 1
        self.message = None


def exchange_control(sim: Simulation, node_a: Node, node_b: Node, now: float) -> None:
    """The knowledge-swap layer of contact start.

    Both payloads' *consumed* fields (delivered_ids, cumulative tables,
    extras) are snapshots of pre-exchange state, then delivered — a
    symmetric, simultaneous swap. (The summary vector is lazy and unread
    in-simulation; see :class:`~repro.core.protocols.base.ControlMessage`.)
    When neither protocol carries control state (pure epidemic, coins-only
    P-Q) the payloads would be inert and nothing runs. Signaling
    accounting for protocol-specific state lives here, behind the store —
    the contact session never sees control units.

    When both protocols are epoch-gated, the per-pair epoch memo elides
    the swap whenever neither side learned anything since this pair's
    last exchange: the accounting still runs (the full table travels every
    encounter in the paper's cost model), but no payload is rebuilt and no
    ``receive_control`` — guaranteed a no-op — is dispatched.
    """
    proto_a = node_a.protocol
    proto_b = node_b.protocol
    if not (proto_a.exchanges_control or proto_b.exchanges_control):
        return
    ka = proto_a.knowledge
    kb = proto_b.knowledge
    pair = None
    elide = False
    if (
        proto_a.epoch_gated_control
        and proto_b.epoch_gated_control
        and ka is not None
        and kb is not None
    ):
        pair = (node_a.id, node_b.id)
        elide = sim.pair_knowledge.get(pair) == (ka.epoch, kb.epoch)
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
    if elide:
        # Elided swap: accounting only (see docstring).
        return
    proto_b.receive_control(msg_a, now)
    proto_a.receive_control(msg_b, now)
    if pair is not None and ka is not None and kb is not None:
        # Record post-exchange epochs: both sides now hold the union, so
        # equal epochs at the next meeting prove the swap is a no-op.
        sim.pair_knowledge[pair] = (ka.epoch, kb.epoch)


__all__ = ["CumulativeKnowledgeStore", "KnowledgeStore", "exchange_control"]
