"""Heap-free Structure-of-Arrays contact-sweep execution (``kernel="soa"``).

The third execution tier between the event DES and the ODE surrogate: for
*encounter-inert* protocol populations (pure/ttl/ec/ec_ttl, coins-only
P-Q, spray) a contact can only matter when one side holds a copy the
other side lacks. The kernel therefore consumes the trace's columnar
:meth:`~repro.mobility.contact.ContactTrace.contact_arrays` form directly
and sweeps the time-sorted contact stream against per-node copy masks —
one bundle-bit per offered bundle, held both as Python integers (O(1)
single-contact probes: ``sendable[a] & ~has[b]``) and as NumPy boolean
rows (vectorized classification of long futile spans, one row test per
:data:`_SKIP_CHUNK` contacts). Futile spans are retired in bulk —
per-contact signaling in one counter update, per-node control units in
one ``bincount`` — while the rare *possible* contacts run the exact
per-slot exchange machinery (same predicates, same RNG draws, same
service-layer calls) against the simulation's own event calendar
(:class:`~repro.des.engine.Engine`), whose heap then carries only dynamic
events: transfer completions, TTL expiries, deferred flow injections.

Populations that keep delivery knowledge in a stock store (anti-packet
P-Q, immunity, cumulative immunity) add a per-node **knowledge plane**:
the bundle bits the node's store covers (the i-list's ids, or each
cumulative table's prefix). The plane joins the has mask — it is the
planner's knows-delivered veto — and every contact enters the sweep,
zero-transfer ones included, because each one carries the stores. A
contact is futile when the two planes are equal (the swap is a no-op)
and no copy can cross it; a contact whose planes differ runs
:func:`~repro.core.knowledge.exchange_control` and ends its contact
block. Knowledge only grows on this tier, so a futile contact's control
units (the store size, each way) settle in bulk from a per-node log of
store sizes.

Masks change only inside calendar events and knowledge-changing
contacts, and each of those ends the contact block, so the masks are
constant across the span being classified — no invalidation machinery,
no rescans.

Exactness contract: a kernel run produces a byte-identical
:class:`~repro.core.results.RunResult` to the event engine. The sweep
loop merges the swept contacts with the calendar by the engine's stream
rule (stated in :mod:`repro.des.engine`): the swept contacts take the
contiguous seq block the engine's run would have reserved for them, so
every equal-timestamp ordering the event tier guarantees (origin expiry
before contact, contact before completion) is preserved — and the span
skip test is *conservative*: a skipped contact
is one whose session would provably plan nothing, mutate nothing, and
draw no randomness (every candidate exits the planner's predicate chain
at the expiry, receiver-has-copy or receiver-knows-delivered check, all
of which precede the P-Q coin). Everything else — metrics, counters, protocol hooks, buffer
policies — is the same service-layer code the event engine runs, invoked
in the same order with the same arguments. The golden pins
(``tests/core/test_golden_runs.py``), the kernel-vs-event cases
(``tests/core/test_sweepkernel.py``) and the differential ladder
(``tests/test_ladder.py``) enforce the contract.

Eligibility (:func:`kernel_unsupported_reason`): a homogeneous population
without active fault injection whose class is either encounter-inert
with the base (constant-false) ``knows_delivered``, or one of the stock
knowledge-store classes (:data:`_KNOWLEDGE_HOOKS`) with every knowledge
hook, ``on_encounter_started`` and ``epoch_gated_control`` as stock.
``kernel="auto"`` silently falls back to the event engine otherwise;
``kernel="soa"`` fails fast with the reason.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.bundle import BundleId, StoredBundle
from repro.core.knowledge import CumulativeKnowledgeStore, exchange_control
from repro.core.protocols.antipacket import AntiPacketProtocol
from repro.core.protocols.base import Protocol
from repro.core.protocols.immunity import CumulativeImmunityEpidemic
from repro.mobility.contact import zero_transfer_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Container

    from numpy.typing import NDArray

    from repro.core.node import Node
    from repro.core.results import RunResult
    from repro.core.simulation import Simulation

    #: A trace's contact columns: starts, ends, endpoint a, endpoint b.
    _Columns = tuple[
        NDArray[np.float64], NDArray[np.float64], NDArray[np.intp], NDArray[np.intp]
    ]

#: Contacts classified per vectorized row test once a futile span outlives
#: the integer-probe budget (:data:`_PROBE`).
_SKIP_CHUNK = 2048

#: Single-contact integer probes spent on a span before switching to the
#: chunked NumPy scan — short spans (the common case between two transfer
#: completions) never pay array-call overhead.
_PROBE = 48

#: The stock delivery-knowledge classes the kernel runs with a knowledge
#: plane, each with the hooks whose stock behaviour the plane mirrors: the
#: store's swap, its purge-on-learn and its size as the signaling bill.
_KNOWLEDGE_HOOKS: dict[type[Protocol], tuple[str, ...]] = {
    AntiPacketProtocol: (
        "control_payload",
        "receive_control",
        "control_units",
        "learn_delivered",
        "knows_delivered",
        "on_delivered",
    ),
    CumulativeImmunityEpidemic: (
        "control_payload",
        "receive_control",
        "control_units",
        "_absorb_table",
        "knows_delivered",
        "on_delivered",
    ),
}


def kernel_unsupported_reason(sim: Simulation) -> str | None:
    """Why the SoA kernel cannot execute ``sim``, or None when it can.

    ``kernel="auto"`` routes a run to the event engine when this returns a
    reason; ``kernel="soa"`` surfaces it in a ``ValueError`` instead. The
    conditions mirror what the kernel structurally elides: control
    exchange other than a stock knowledge store's, delivery-knowledge
    probes outside such a store (``knows_delivered`` overrides), and the
    disruption machinery.
    """
    if sim.faults is not None:
        return "fault injection is active (the kernel has no crash/link machinery)"
    if sim.config.engine != "des":
        return f"engine={sim.config.engine!r} does not execute discrete events"
    if not sim.nodes:
        return "empty population"
    cls = type(sim.nodes[0].protocol)
    for node in sim.nodes:
        if type(node.protocol) is not cls:
            return "heterogeneous protocol classes in one population"
    if cls.encounter_inert:
        if cls.knows_delivered is not Protocol.knows_delivered:
            return (
                f"protocol {cls.name!r} overrides knows_delivered; the kernel "
                "elides delivery-knowledge probes"
            )
        return None
    stock = next((base for base in _KNOWLEDGE_HOOKS if issubclass(cls, base)), None)
    if stock is None:
        return (
            f"protocol {cls.name!r} is not encounter-inert (it exchanges "
            "control state or hooks contact starts) and keeps no stock "
            "delivery-knowledge store"
        )
    for hook in (*_KNOWLEDGE_HOOKS[stock], "on_encounter_started"):
        if getattr(cls, hook) is not getattr(stock, hook):
            return (
                f"protocol {cls.name!r} overrides {hook}; the kernel mirrors "
                f"the stock {stock.__name__} knowledge hooks"
            )
    if not cls.epoch_gated_control:
        return (
            f"protocol {cls.name!r} withdraws epoch_gated_control; the kernel "
            "needs a swap that equal stores make a no-op"
        )
    return None


class _Session:
    """One live contact's exchange state (the SoA ContactSession twin)."""

    __slots__ = ("node_a", "node_b", "end", "tx_time", "budget", "t_cursor", "coin_rejected")

    def __init__(
        self, node_a: Node, node_b: Node, start: float, end: float, tx_time: float, budget: int
    ) -> None:
        self.node_a = node_a
        self.node_b = node_b
        self.end = end
        self.tx_time = tx_time
        self.budget = budget
        self.t_cursor = start
        self.coin_rejected: set[tuple[int, BundleId]] | None = None


class SweepKernel:
    """One run's array-resident sweep state; single-use like Simulation."""

    # Slots keep every ``self._x`` load on the hot paths a fixed-offset
    # read: past 30 attributes CPython stops sharing instance-dict keys,
    # and the specialized attribute loads fall back to a slower path.
    __slots__ = (
        "sim", "_engine", "_nodes", "_n", "_col", "_snd_bits", "_has_bits",
        "_b", "_mask_bytes", "_sendable", "_has", "_masks_dirty",
        "_cand_keys", "_cand_sbs", "_cand_bits", "_dest_counts", "_ctrl_np",
        "_skipped", "_trivial_offer", "_trivial_confirm", "_trivial_accept",
        "_trivial_store", "_pure_offer", "_rentries", "_rcaps", "_relays",
        "_origins", "_live_starts", "_live_a", "_live_b", "_knowledge",
        "_know_bits", "_know", "_know_size", "_size_keys", "_size_vals",
        "_stride", "_know_units", "_carry",
    )

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._engine = sim.engine
        nodes = sim.nodes
        self._nodes = nodes
        self._n = len(nodes)
        # bundle-id → mask bit position over the full offered population
        col: dict[BundleId, int] = {}
        for flow in sim.flows:
            flow_id = flow.flow_id
            for seq in range(1, flow.num_bundles + 1):
                col[BundleId(flow=flow_id, seq=seq)] = len(col)
        self._col = col
        n, b = self._n, len(col)
        # Twin mask representations, mutated together on every copy event:
        # Python ints for O(1) scalar probes, bool rows for chunked scans.
        #: node holds a live (origin or relay) copy — possibly expired at
        #: the current instant, which the planner's own predicate rejects
        self._snd_bits: list[int] = [0] * n
        #: node holds a copy, is the (delivered-to) destination, or knows
        #: the bundle was delivered (its knowledge plane) — the planner's
        #: receiver-has-it and receiver-knows-delivered vetoes
        self._has_bits: list[int] = [0] * n
        self._b = b
        self._mask_bytes = max(1, (b + 7) >> 3)
        self._sendable: NDArray[np.bool_] = np.zeros((n, b), dtype=np.bool_)
        self._has: NDArray[np.bool_] = np.zeros((n, b), dtype=np.bool_)
        # the NumPy mirrors are consulted only by the (rare) chunked scan,
        # so copy events just mark them stale instead of paying a scalar
        # array write per mutation; the scan rebuilds from the int masks
        self._masks_dirty = False
        # per-node candidate order: (stored_at, bid) keys + parallel copies
        # and bundle bits (the planner's total order, maintained
        # incrementally), plus a per-destination tally so the
        # peer-destined-first pass can skip scanning when the sender holds
        # nothing addressed to this receiver
        self._cand_keys: list[list[tuple[float, BundleId]]] = [[] for _ in range(n)]
        self._cand_sbs: list[list[StoredBundle]] = [[] for _ in range(n)]
        self._cand_bits: list[list[int]] = [[] for _ in range(n)]
        self._dest_counts: list[dict[int, int]] = [{} for _ in range(n)]
        # bulk-retired per-contact control units (futile contacts), settled
        # vectorized at end of run — an order-independent sum
        self._ctrl_np: NDArray[np.int64] = np.zeros(n, dtype=np.int64)
        self._skipped = 0
        proto_cls = type(nodes[0].protocol)
        self._trivial_offer = proto_cls.should_offer is Protocol.should_offer
        self._trivial_confirm = proto_cls.confirm_transfer is Protocol.confirm_transfer
        self._trivial_accept = proto_cls.can_accept is Protocol.can_accept
        # whole-chain gate for the inlined relay-store path in _complete:
        # no protocol hook anywhere between transmission and candidate
        # registration (base on_transmitted / accept / on_copy_received by
        # method identity) and no fault machinery that store_received_copy
        # would have to consult — pure epidemic and coin-flip P-Q qualify
        self._trivial_store = (
            sim.faults is None
            and self._trivial_confirm
            and proto_cls.on_transmitted is Protocol.on_transmitted
            and proto_cls.accept is Protocol.accept
            and proto_cls.on_copy_received is Protocol.on_copy_received
        )
        # fully-trivial substrate (pure epidemic): every planner predicate
        # except the want filter and the capacity probe is vacuous, so
        # _schedule_next can use the specialized candidate scan
        self._pure_offer = (
            self._trivial_store and self._trivial_offer and self._trivial_accept
        )
        # per-node store internals, cached for frame-free probes: the relay
        # id → copy dicts are live views (never rebound by RelayStore), the
        # origin dicts are the nodes' own
        self._rentries: list[dict[BundleId, StoredBundle]] = [
            node.relay.entries_view() for node in nodes
        ]
        self._rcaps: list[int] = [node.relay.capacity for node in nodes]
        self._relays = [node.relay for node in nodes]
        self._origins: list[dict[BundleId, StoredBundle]] = [
            node.origin for node in nodes
        ]
        # swept-contact columns (filled by _drive)
        self._live_starts: NDArray[np.float64] = np.empty(0, dtype=np.float64)
        self._live_a: NDArray[np.intp] = np.empty(0, dtype=np.intp)
        self._live_b: NDArray[np.intp] = np.empty(0, dtype=np.intp)
        # ---- the delivery-knowledge plane: all zero for an inert
        # population, whose sweep then reduces to the copy-mask test
        #: the population keeps delivery knowledge in a stock store
        #: (eligibility admits no other non-inert class)
        self._knowledge = not proto_cls.encounter_inert
        #: per-node bundle bits the node's knowledge store covers
        self._know_bits: list[int] = [0] * n
        #: per-node len(store) — one contact's control units each way
        self._know_size: list[int] = [0] * n
        #: protocol control units owed at equal-store contacts, settled
        #: into the signaling counter on return
        self._know_units = 0
        if self._knowledge:
            self._know_bits = [self._plane_of(node) for node in nodes]
            self._know_size = [len(node.protocol.knowledge) for node in nodes]
            #: NumPy mirror of the planes, for the chunked scan
            self._know: NDArray[np.bool_] = np.zeros((n, b), dtype=np.bool_)
            #: store-size log: key ``node * stride + pos`` says the node's
            #: size is the parallel value from swept contact ``pos`` on
            #: (_drive seeds it once the contact count is known)
            self._size_keys: list[int] = []
            self._size_vals: list[int] = []
            self._stride = 1
            #: per swept contact: the link carries at least one bundle
            #: (the chunked scan's copy-test gate; set by _drive)
            self._carry: NDArray[np.bool_] = np.empty(0, dtype=np.bool_)

    # ----------------------------------------------------- state observation
    # (Simulation calls these on every copy-population change; they keep the
    # masks and candidate orders exact without polling node buffers. Every
    # call site sits inside a calendar event or a knowledge-changing
    # contact, each of which ends the contact block, so masks never change
    # while a contact span is being classified.)

    def copy_added(self, node: Node, sb: StoredBundle) -> None:
        bid = sb.bundle.bid
        live = self._origins[node.id].get(bid)
        if live is None:
            live = self._rentries[node.id].get(bid)
        if live is not sb:
            # stored and removed within one accept-hook chain (EC+TTL can
            # age a just-received copy out before accounting finishes):
            # net population change is nil, and copy_removed already ran
            return
        nid = node.id
        c = self._col[bid]
        bit = 1 << c
        self._snd_bits[nid] |= bit
        self._has_bits[nid] |= bit
        self._masks_dirty = True
        key = (sb.stored_at, bid)
        keys = self._cand_keys[nid]
        i = bisect_left(keys, key)
        keys.insert(i, key)
        self._cand_sbs[nid].insert(i, sb)
        self._cand_bits[nid].insert(i, bit)
        counts = self._dest_counts[nid]
        dest = sb.bundle.destination
        counts[dest] = counts.get(dest, 0) + 1

    def copy_removed(self, node: Node, sb: StoredBundle) -> None:
        bid = sb.bundle.bid
        nid = node.id
        c = self._col[bid]
        bit = 1 << c
        self._snd_bits[nid] &= ~bit
        self._has_bits[nid] &= ~bit
        self._masks_dirty = True
        keys = self._cand_keys[nid]
        key = (sb.stored_at, bid)
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key and self._cand_sbs[nid][i] is sb:
            del keys[i]
            del self._cand_sbs[nid][i]
            del self._cand_bits[nid][i]
            self._dest_counts[nid][sb.bundle.destination] -= 1

    def delivered(self, node: Node, bid: BundleId) -> None:
        self._has_bits[node.id] |= 1 << self._col[bid]
        self._masks_dirty = True

    # ---------------------------------------------------- knowledge plane

    def _plane_of(self, node: Node) -> int:
        """The bundle bits ``node``'s knowledge store covers."""
        store = node.protocol.knowledge
        col = self._col
        bits = 0
        if isinstance(store, CumulativeKnowledgeStore):
            for flow, seq in sorted(store.tables.items()):
                # a flow's bundles hold consecutive bits, seq 1 lowest
                bits |= ((1 << seq) - 1) << col[BundleId(flow=flow, seq=1)]
        else:
            for bid in sorted(store.snapshot):
                bits |= 1 << col[bid]
        return bits

    def _learned(self, nid: int, plane: int, pos: int) -> None:
        """Node ``nid`` now knows ``plane``; swept contact ``pos`` on sees it."""
        know = self._know_bits
        if know[nid] == plane:
            return
        know[nid] = plane
        # the plane is the receiver-has veto; a purge that taught it just
        # cleared its copy's has bit, so OR the whole plane back in
        self._has_bits[nid] |= plane
        self._masks_dirty = True
        size = len(self._nodes[nid].protocol.knowledge)
        if size != self._know_size[nid]:
            self._know_size[nid] = size
            self._size_keys.append(nid * self._stride + pos)
            self._size_vals.append(size)

    def _sizes_at(self, ids: NDArray[np.intp]) -> NDArray[np.float64]:
        """Store size of node ``ids[j]`` as swept contact ``j`` saw it."""
        keys = np.asarray(self._size_keys, dtype=np.int64)
        # appended in sweep order; a stable sort groups them per node
        order = np.argsort(keys, kind="stable")
        queries = ids.astype(np.int64) * self._stride + np.arange(len(ids))
        at = np.searchsorted(keys[order], queries, side="right") - 1
        return np.asarray(self._size_vals, dtype=np.float64)[order[at]]

    # -------------------------------------------------------------- planning
    # (op-for-op mirrors of IncrementalPlanner / ContactSession — see
    # repro.core.planner and repro.core.session for the semantics prose)

    def _first_offer(
        self, rec: _Session, sender: Node, receiver: Node, now: float, want: int
    ) -> StoredBundle | None:
        # ``want`` = sender's sendable bits the receiver lacks — candidates
        # outside it exit the reference predicate chain at the receiver-
        # has-copy or receiver-knows-delivered check (no side effects, no
        # RNG), so filtering by bit
        # visits exactly the candidates the planner would inspect further,
        # in the planner's exact (tier, stored_at, bid) order.
        sender_id = sender.id
        rid = receiver.id
        coin_rejected: Container[tuple[int, BundleId]] = rec.coin_rejected or ()
        sender_protocol = sender.protocol
        receiver_protocol = receiver.protocol
        sbs = self._cand_sbs[sender_id]
        bits = self._cand_bits[sender_id]
        trivial_offer = self._trivial_offer
        # base can_accept inlined (destination always accepts; a buffer
        # with room always accepts; a full one defers to the drop policy)
        trivial_accept = self._trivial_accept
        recv_entries = self._rentries[rid]
        recv_cap = self._rcaps[rid]
        peer_destined = self._dest_counts[sender_id].get(rid, 0)
        if peer_destined:
            # pass 1: bundles destined for the receiver, oldest-stored first
            for i, bit in enumerate(bits):
                if not (bit & want):
                    continue
                sb = sbs[i]
                if sb.bundle.destination != rid:
                    continue
                if now >= sb.expiry:
                    continue
                bid = sb.bundle.bid
                if (sender_id, bid) in coin_rejected:
                    continue
                # both knows_delivered probes are elided: the receiver's
                # knowledge plane is in its has mask, so ``want`` already
                # excludes it, and a sender never holds a copy it knows
                # was delivered (learning purges it); base can_accept is
                # constant-true here (candidate is destined for the
                # receiver)
                if not trivial_accept and not receiver_protocol.can_accept(
                    sb.bundle, now
                ):
                    continue
                if trivial_offer or sender_protocol.should_offer(sb, receiver, now):
                    return sb
                rejected = rec.coin_rejected
                if rejected is None:
                    rejected = rec.coin_rejected = set()
                rejected.add((sender_id, bid))
                coin_rejected = rejected
        # pass 2: the rest, same order — together the two passes visit
        # candidates in the planner's exact two-tier order
        for i, bit in enumerate(bits):
            if not (bit & want):
                continue
            sb = sbs[i]
            if peer_destined and sb.bundle.destination == rid:
                continue
            if now >= sb.expiry:
                continue
            bid = sb.bundle.bid
            if (sender_id, bid) in coin_rejected:
                continue
            if trivial_accept:
                if (
                    len(recv_entries) >= recv_cap
                    and sb.bundle.destination != rid
                    and not receiver.drop_policy.can_make_room(
                        receiver.relay, sb.bundle
                    )
                ):
                    continue
            elif not receiver_protocol.can_accept(sb.bundle, now):
                continue
            if trivial_offer or sender_protocol.should_offer(sb, receiver, now):
                return sb
            rejected = rec.coin_rejected
            if rejected is None:
                rejected = rec.coin_rejected = set()
            rejected.add((sender_id, bid))
            coin_rejected = rejected
        return None

    def _first_offer_pure(
        self, sender_id: int, receiver: Node, want: int
    ) -> StoredBundle | None:
        # _first_offer specialized for the fully-trivial substrate (base
        # offer/accept/store hooks, so no protocol ever assigns an expiry
        # or records a coin veto): the same two-tier visit order with the
        # want filter and the capacity probe as the only live predicates.
        sbs = self._cand_sbs[sender_id]
        bits = self._cand_bits[sender_id]
        rid = receiver.id
        recv_full = len(self._rentries[rid]) >= self._rcaps[rid]
        if self._dest_counts[sender_id].get(rid, 0):
            for i, bit in enumerate(bits):
                if bit & want and sbs[i].bundle.destination == rid:
                    return sbs[i]
            for i, bit in enumerate(bits):
                if bit & want:
                    sb = sbs[i]
                    if sb.bundle.destination == rid:
                        continue
                    if recv_full and not receiver.drop_policy.can_make_room(
                        receiver.relay, sb.bundle
                    ):
                        continue
                    return sb
            return None
        # no candidate is destined for the receiver: single pass, and the
        # destination-always-accepts arm of the capacity probe is vacuous
        for i, bit in enumerate(bits):
            if bit & want:
                sb = sbs[i]
                if recv_full and not receiver.drop_policy.can_make_room(
                    receiver.relay, sb.bundle
                ):
                    continue
                return sb
        return None

    def _schedule_next(self, rec: _Session, now: float) -> None:
        if rec.budget <= 0:
            return
        slot_end = rec.t_cursor + rec.tx_time
        if slot_end > rec.end + 1e-9:
            return
        node_a, node_b = rec.node_a, rec.node_b
        snd = self._snd_bits
        hasb = self._has_bits
        aid, bid_ = node_a.id, node_b.id
        pure = self._pure_offer
        sb = None
        want = snd[aid] & ~hasb[bid_]
        if want:
            if pure:
                sb = self._first_offer_pure(aid, node_b, want)
            else:
                sb = self._first_offer(rec, node_a, node_b, now, want)
        if sb is not None:
            sender, receiver = node_a, node_b
        else:
            want = snd[bid_] & ~hasb[aid]
            if want:
                if pure:
                    sb = self._first_offer_pure(bid_, node_a, want)
                else:
                    sb = self._first_offer(rec, node_b, node_a, now, want)
            if sb is None:
                return
            sender, receiver = node_b, node_a
        rec.t_cursor = slot_end
        # Engine.at, inlined (hot: once per planned transfer; slot_end is
        # always ahead of the clock)
        engine = self._engine
        entry: list[Any] = [
            slot_end, engine.seq, self._complete, (rec, sender, receiver, sb), True
        ]
        engine.seq += 1
        heapq.heappush(engine.heap, entry)

    def _complete(self, rec: _Session, sender: Node, receiver: Node, sb: StoredBundle) -> None:
        sim = self.sim
        metrics = sim.metrics
        now = self._engine.now
        rec.budget -= 1
        bid = sb.bundle.bid
        rid = receiver.id
        bit = 1 << self._col[bid]
        # receiver.has_copy probe via the exact mask mirror (relay ∪ origin
        # ∪ delivered), sender.get_copy via the cached store views
        if self._has_bits[rid] & bit:
            metrics.on_wasted_slot()
            self._schedule_next(rec, now)
            return
        held = self._origins[sender.id].get(bid)
        if held is None:
            held = self._rentries[sender.id].get(bid)
        still_held = held is sb
        if (
            self._trivial_store
            and still_held
            and sb.bundle.destination != rid
            and len(self._rentries[rid]) < self._rcaps[rid]
        ):
            # hook-free relay store, mutation-for-mutation the reference
            # chain below: base on_transmitted, base accept with a
            # non-full buffer, the store accounting, and copy_added —
            # collapsed into one frame for the dominant completion shape
            sb.ec += 1
            sender.counters.bundles_sent += 1
            metrics.bundle_transmissions += 1
            stored = StoredBundle(bundle=sb.bundle, stored_at=now, ec=sb.ec)
            # relay.add, inlined: the duplicate and capacity guards are
            # discharged by the has-bit probe and the gate above
            self._rentries[rid][bid] = stored
            self._relays[rid].version += 1
            receiver.counters.bundles_received += 1
            metrics.on_relay_copy_stored(bid, now)
            self._snd_bits[rid] |= bit
            self._has_bits[rid] |= bit
            self._masks_dirty = True
            key = (now, bid)
            keys = self._cand_keys[rid]
            i = bisect_left(keys, key)
            keys.insert(i, key)
            self._cand_sbs[rid].insert(i, stored)
            self._cand_bits[rid].insert(i, bit)
            counts = self._dest_counts[rid]
            dest = sb.bundle.destination
            counts[dest] = counts.get(dest, 0) + 1
            self._schedule_next(rec, now)
            return
        if (
            still_held
            and not self._trivial_confirm
            and not sender.protocol.confirm_transfer(sb, receiver, now)
        ):
            metrics.on_wasted_slot()
            self._schedule_next(rec, now)
            return
        if still_held:
            sender.protocol.on_transmitted(sb, receiver, now)
            ec_for_receiver = sb.ec
        else:
            # a sender that learned mid-flight that the bundle arrived
            # aborts the transmission; learning purged its copy, so only a
            # vanished copy can hide that knowledge
            if self._know_bits[sender.id] & bit:
                metrics.on_wasted_slot()
                self._schedule_next(rec, now)
                return
            ec_for_receiver = sb.ec + 1
        sender.counters.bundles_sent += 1
        metrics.on_transmission()
        if sb.bundle.destination == receiver.id:
            sim.deliver(receiver, sb.bundle, now, via=sender.id)
            if self._knowledge:
                # the destination's store took the delivery (a cumulative
                # table only over its contiguous prefix). A completion's
                # seq is above the whole swept block, reserved before any
                # completion was scheduled, so every contact starting by
                # now was swept first and the next one sees the change.
                pos = int(np.searchsorted(self._live_starts, now, side="right"))
                self._learned(rid, self._plane_of(receiver), pos)
        else:
            stored = sim.store_received_copy(
                receiver, sb.bundle, ec_for_receiver, now, sender_copy=sb
            )
            if stored is None:
                receiver.counters.rejections += 1
                metrics.on_wasted_slot()
        self._schedule_next(rec, now)

    # ------------------------------------------------------------- skip scan

    def _scan_chunks(self, lo: int, hi: int) -> int:
        """First contact index in ``[lo, hi)`` whose skip test fails, or ``hi``.

        The vectorized arm of the skip test: classifies
        :data:`_SKIP_CHUNK` contacts per row operation against the NumPy
        mask mirrors. Called only after the integer probe has burned its
        budget on an unbroken futile run — i.e. for the long spans where
        array overhead amortizes. With a knowledge plane a contact is also
        possible when its two planes differ, and a copy can cross it only
        when its link carries a bundle.
        """
        if self._masks_dirty:
            self._rebuild_masks()
        sendable = self._sendable
        has = self._has
        live_a = self._live_a
        live_b = self._live_b
        knowledge = self._knowledge
        while lo < hi:
            nhi = lo + _SKIP_CHUNK
            if nhi > hi:
                nhi = hi
            a = live_a[lo:nhi]
            b = live_b[lo:nhi]
            possible = (sendable[a] & ~has[b]).any(axis=1)
            possible |= (sendable[b] & ~has[a]).any(axis=1)
            if knowledge:
                possible &= self._carry[lo:nhi]
                possible |= (self._know[a] != self._know[b]).any(axis=1)
            if possible.any():
                return lo + int(possible.argmax())
            lo = nhi
        return hi

    def _block_end(self, n_fire: int, h_time: float, h_seq: int, contact_base: int) -> int:
        """One past the last swept contact that precedes the calendar head."""
        if h_time == math.inf:
            return n_fire
        starts = self._live_starts
        hi = int(np.searchsorted(starts, h_time, side="left"))
        if hi > n_fire:
            hi = n_fire
        # the engine's stream rule: a tie goes to the lower seq
        while hi < n_fire and starts[hi] == h_time and contact_base + hi < h_seq:
            hi += 1
        return hi

    def _rebuild_masks(self) -> None:
        """Refresh the NumPy mask mirrors from the integer bitmasks."""
        nbytes = self._mask_bytes
        b = self._b
        mirrors = [("_sendable", self._snd_bits), ("_has", self._has_bits)]
        if self._knowledge:
            mirrors.append(("_know", self._know_bits))
        for name, bits_list in mirrors:
            raw = b"".join(bits.to_bytes(nbytes, "little") for bits in bits_list)
            packed = np.frombuffer(raw, dtype=np.uint8).reshape(self._n, nbytes)
            rows = np.unpackbits(packed, axis=1, bitorder="little")[:, :b]
            setattr(self, name, rows.view(np.bool_))
        self._masks_dirty = False

    def _settle_futile(self, ci: int, fired_idx: list[int]) -> None:
        """One-shot accounting for every futile contact in ``[0, ci)``.

        The sweep loop only records which contacts it ran (``fired_idx``);
        everything else it advanced past is futile, so the skip count and
        per-endpoint control units settle here as two whole-prefix
        bincounts minus the run contacts' contribution — order-independent
        sums, exactly as the per-event path tallies them one encounter at
        a time. With a knowledge plane each futile contact also carried
        both (equal) stores: ``len(store)`` units each way, at the size
        that contact saw.
        """
        n_sessions = len(fired_idx)
        futile = ci - n_sessions
        if not futile:
            return
        self._skipped += futile
        minlength = self._n
        live_a = self._live_a[:ci]
        live_b = self._live_b[:ci]
        units = np.bincount(live_a, minlength=minlength)
        units += np.bincount(live_b, minlength=minlength)
        fi = np.asarray(fired_idx, dtype=np.intp)
        if n_sessions:
            units -= np.bincount(self._live_a[fi], minlength=minlength)
            units -= np.bincount(self._live_b[fi], minlength=minlength)
        if self._knowledge:
            # equal planes are equal stores, so endpoint a's size is both's
            sizes = self._sizes_at(live_a)
            sizes[fi] = 0.0
            units += np.bincount(live_a, weights=sizes, minlength=minlength).astype(np.int64)
            units += np.bincount(live_b, weights=sizes, minlength=minlength).astype(np.int64)
            self._know_units += 2 * int(sizes.sum())
        self._ctrl_np += units

    # ------------------------------------------------------------------ run

    def run(self, horizon: float) -> RunResult:
        """Execute the swept run and build its result.

        Every service-layer ``engine.at``/``cancel``/``halt``/``now``
        lands on the simulation's engine, which the sweep loop drives
        directly. Afterwards the skipped contacts count as fired events,
        the clock moves to the end time, and the end-of-run flush replays
        encounter history and settles the left-out contacts — so result
        construction is the exact code path of an event run.
        """
        sim = self.sim
        engine = self._engine
        arrays = sim.trace.contact_arrays()
        zero_mask = zero_transfer_mask(sim.trace, sim.config.bundle_tx_time, arrays=arrays)
        sim._state_observer = self
        try:
            halted = self._drive(horizon, arrays, zero_mask)
        finally:
            sim._state_observer = None
        end_time = engine.now if halted else horizon
        engine.events_fired += self._skipped
        engine.now = end_time
        if self._skipped:
            sim.metrics.on_batched_contacts(self._skipped)
        if self._know_units:
            sim.metrics.signaling.add(self._nodes[0].protocol.control_kind, self._know_units)
        for node, units in zip(self._nodes, self._ctrl_np.tolist(), strict=True):
            if units:
                node.counters.control_units_sent += units
        # the flush accounts the zero-transfer contacts an inert sweep left
        # out; a knowledge sweep left none out
        self._flush_deferred_bookkeeping(
            None if self._knowledge else zero_mask, end_time, arrays
        )
        return sim._build_result()

    def _flush_deferred_bookkeeping(
        self, left_out: NDArray[np.bool_] | None, end_time: float, arrays: _Columns
    ) -> None:
        """Batched bookkeeping for the swept run, which defers history.

        Replays, in one pass, everything the event tier's contact handler
        would have done for contacts that started by ``end_time`` and the
        sweep did not: encounter history for *every* fired contact
        (identical mutation sequence — the trace is processed in the same
        ``(start, end, a, b)`` order the event tier fires it, and
        ``note_encounter`` depends only on the passed times), and the
        per-contact signaling accounting for the contacts flagged in
        ``left_out`` — the zero-transfer contacts an inert sweep leaves
        out (None when every contact was swept, as a knowledge-plane sweep
        does). Contacts past ``end_time`` are excluded exactly as the
        event loop would have left them unfired: an early-delivery halt
        happens in a transfer-completion event, which by the engine's
        stream rule fires *after* every contact of the same timestamp.
        """
        sim = self.sim
        starts, _ends, a_ids, b_ids = arrays
        fired = int(np.searchsorted(starts, end_time, side="right"))
        nodes = self._nodes
        if fired:
            self._replay_encounter_history(a_ids[:fired], b_ids[:fired])
        if left_out is not None:
            zmask = left_out[:fired]
            batched = int(zmask.sum())
            if batched:
                sim.batched_encounters += batched
                sim.metrics.on_batched_contacts(batched)
                counts = np.bincount(a_ids[:fired][zmask], minlength=len(nodes))
                counts += np.bincount(b_ids[:fired][zmask], minlength=len(nodes))
                for node, encounters in zip(nodes, counts.tolist(), strict=True):
                    if encounters:
                        node.counters.control_units_sent += encounters

    def _replay_encounter_history(
        self, a_ids: NDArray[np.intp], b_ids: NDArray[np.intp]
    ) -> None:
        """Bulk-replay ``note_encounter`` for every fired contact endpoint.

        Bit-exact replacement for calling ``note_encounter(c.start)`` on
        both endpoints of each fired contact in trace order. Each node's
        chronological encounter stream comes from the trace's cached
        :meth:`~repro.mobility.contact.ContactTrace.encounter_streams`
        (stable sort of the interleaved endpoint columns, a then b at
        equal contact rank — built once per immutable trace, not per
        run); a run that halts early consumes each node's prefix of that
        stream, whose length is exactly the node's endpoint count among
        the fired contacts because times ascend within a node's stream.
        Encounters of *different* nodes commute, so the global
        interleaving is irrelevant.

        The per-encounter recurrence ("advance the rendezvous anchor when
        the gap from it exceeds the debounce threshold") collapses: at any
        encounter whose gap from the *previous encounter* already exceeds
        the threshold, the anchor provably resets to that encounter —
        whatever the earlier anchor was, it is at most the previous
        encounter time, so the advance fires and lands exactly there. The
        final state therefore depends only on the (typically short) run
        after the node's last such reset, plus — when that run never
        advances — one preceding inter-reset chunk to recover the anchor
        the reset measured its interval from. Both walks execute the
        recurrence's own float subtractions, so results are bit-identical
        to calling ``note_encounter`` per contact. Nodes carrying
        pre-existing history state fall back to the full recurrence.
        """
        nodes = self._nodes
        n = len(nodes)
        offsets, ts, nid_tail, same, dts = self.sim.trace.encounter_streams()
        counts = np.bincount(a_ids, minlength=n)
        counts += np.bincount(b_ids, minlength=n)
        thresholds = np.array(
            [node.history.min_rendezvous_gap for node in nodes], dtype=np.float64
        )
        # reset flags are valid for the fired prefixes even though they are
        # computed over the full stream: a flag at position p < hi compares
        # ts[p] to ts[p-1], both inside the prefix (times ascend per node)
        reset = same & (dts > thresholds[nid_tail])
        reset_pos = np.flatnonzero(reset) + 1
        resets_below_hi = np.searchsorted(reset_pos, offsets[:-1] + counts).tolist()
        reset_pos_l = reset_pos.tolist()
        counts_l = counts.tolist()
        offsets_l = offsets.tolist()
        # only the short post-reset tails are walked in Python, so convert
        # slices on demand instead of materializing all 2·fired floats
        ts_item = ts.item
        for nid, node in enumerate(nodes):
            k = counts_l[nid]
            if not k:
                continue
            history = node.history
            history.encounter_count += k
            lo = offsets_l[nid]
            gap_min = history.min_rendezvous_gap
            last = history.last_encounter_time
            if last is not None:
                # resumed history: full recurrence (no fresh-start reset)
                interval = history.last_interval
                for t in ts[lo : lo + k].tolist():
                    gap = t - last
                    if gap > gap_min:
                        interval = gap
                        last = t
                history.last_encounter_time = last
                history.last_interval = interval
                continue
            hi = lo + k
            j = resets_below_hi[nid]
            r = reset_pos_l[j - 1] if j else 0
            if r <= lo:
                r = r_prev = lo
            else:
                r_prev = reset_pos_l[j - 2] if j > 1 else 0
                if r_prev < lo:
                    r_prev = lo
            # recurrence over the post-reset tail, anchored exactly at t_r
            last = ts_item(r)
            interval = None
            for t in ts[r + 1 : hi].tolist():
                gap = t - last
                if gap > gap_min:
                    interval = gap
                    last = t
            history.last_encounter_time = last
            if interval is not None:
                history.last_interval = interval
            elif r > lo:
                # tail never advanced, so the final interval is the one the
                # reset at r set: t_r minus the anchor the preceding chunk
                # ended on
                anchor = ts_item(r_prev)
                for t in ts[r_prev + 1 : r].tolist():
                    gap = t - anchor
                    if gap > gap_min:
                        anchor = t
                history.last_interval = ts_item(r) - anchor

    def _drive(
        self, horizon: float, arrays: _Columns, zero_mask: NDArray[np.bool_]
    ) -> bool:
        """Set up the swept columns and run the sweep loop.

        Returns True when the run halted early.
        """
        sim = self.sim
        engine = self._engine
        # flow injection, in the event tier's pre-run order: t=0 flows run
        # now (their expiry pushes take the first seqs), later flows park
        # on the calendar — seq assignment matches the event tier's exactly
        for flow in sim.flows:
            if flow.created_at == 0.0:
                sim._inject_flow(flow)
            else:
                engine.at(flow.created_at, sim._inject_flow, flow)
        starts, ends, a_ids, b_ids = arrays
        if self._knowledge:
            # every contact carries the stores; a copy crosses only the
            # ones whose link carries a bundle
            self._carry = ~zero_mask
            self._stride = stride = len(starts) + 1
            self._size_keys = [nid * stride for nid in range(self._n)]
            self._size_vals = list(self._know_size)
            for nid, plane in enumerate(self._know_bits):
                self._has_bits[nid] |= plane
            self._masks_dirty = True
            carry_l: list[bool] = self._carry.tolist()
        else:
            # inert: a zero-transfer contact changes nothing, so only the
            # contacts that can carry a bundle are swept
            live = np.flatnonzero(~zero_mask)
            starts, ends, a_ids, b_ids = starts[live], ends[live], a_ids[live], b_ids[live]
            carry_l = [True] * len(live)
        self._live_starts = starts
        self._live_a = a_ids
        self._live_b = b_ids
        # the swept contacts' seq block, reserved as Engine.run reserves a
        # stream's: the tie-break in the sweep loop is the engine's stream
        # rule
        contact_base = engine.seq
        engine.seq = contact_base + len(starts)
        n_fire = int(np.searchsorted(starts, horizon, side="right"))
        return self._sweep(
            horizon,
            contact_base,
            n_fire,
            starts.tolist(),
            ends.tolist(),
            a_ids.tolist(),
            b_ids.tolist(),
            carry_l,
        )

    def _sweep(
        self,
        horizon: float,
        contact_base: int,
        n_fire: int,
        starts_l: list[float],
        ends_l: list[float],
        a_l: list[int],
        b_l: list[int],
        carry_l: list[bool],
    ) -> bool:
        """The sweep loop; True when the run halted early.

        A contact is futile when its two knowledge planes are equal and no
        copy can cross it. A contact whose planes differ runs the stock
        swap (:func:`~repro.core.knowledge.exchange_control`); both
        endpoints then know the union, and the contact block ends. A
        contact with equal planes that a copy can cross owes the swap's
        accounting only. Either opens a session when its link carries a
        bundle. An inert population's planes are all zero and every
        contact it sweeps carries, so only the copy-mask test is live.
        """
        sim = self.sim
        engine = self._engine
        nodes = self._nodes
        signaling = sim.metrics.signaling
        link_tx_time = sim.link_tx_time
        uniform_tx = sim._uniform_tx_time
        schedule_next = self._schedule_next
        learned = self._learned
        snd = self._snd_bits
        hasb = self._has_bits
        knowledge = self._knowledge
        know = self._know_bits
        know_size = self._know_size
        heap = engine.heap
        heappop = heapq.heappop
        inf = math.inf
        ci = 0
        # indexes of contacts that fired; every other contact in [0, ci) is
        # futile, and all futile accounting (skip counts + control units)
        # settles in one vectorized pass on return
        fired_idx: list[int] = []
        fired_append = fired_idx.append
        while True:
            while heap and not heap[0][4]:
                heappop(heap)
                engine.dead -= 1
            if heap:
                head = heap[0]
                h_time = head[0]
                h_seq = head[1]
            else:
                h_time = inf
                h_seq = 0
            # ---- contact block: every contact strictly before the next
            # dynamic event in (time, seq) order. Masks change in here only
            # at a knowledge-changing contact, which ends the block.
            progressed = False
            probe = _PROBE
            while ci < n_fire:
                t = starts_l[ci]
                # the engine's stream rule: contact ci is seq contact_base + ci
                if t > h_time or (t == h_time and contact_base + ci >= h_seq):
                    break
                a = a_l[ci]
                b = b_l[ci]
                # the copy test first, and the plane test behind the run's
                # flag: an inert sweep (planes all zero, every contact
                # carrying) then pays one local test per futile contact
                if not (
                    ((snd[a] & ~hasb[b]) or (snd[b] & ~hasb[a])) and carry_l[ci]
                    or knowledge and know[a] != know[b]
                ):
                    # futile: retire inline (accounting settles on return)
                    ci += 1
                    probe -= 1
                    if probe == 0:
                        # unbroken futile run: hand the rest of the block
                        # to the chunked vectorized scan
                        ci = self._scan_chunks(
                            ci, self._block_end(n_fire, h_time, h_seq, contact_base)
                        )
                        probe = _PROBE
                    continue
                engine.now = t
                engine.events_fired += 1
                node_a = nodes[a]
                node_b = nodes[b]
                if knowledge:
                    plane_a = know[a]
                    plane_b = know[b]
                    if plane_a != plane_b:
                        exchange_control(sim, node_a, node_b, t)
                        union = plane_a | plane_b
                        learned(a, union, ci + 1)
                        learned(b, union, ci + 1)
                    elif know_size[a]:
                        # equal stores: the swap is a no-op, its bill is not
                        units = know_size[a]
                        self._know_units += 2 * units
                        node_a.counters.control_units_sent += units
                        node_b.counters.control_units_sent += units
                signaling.summary_vector += 2
                node_a.counters.control_units_sent += 1
                node_b.counters.control_units_sent += 1
                if carry_l[ci]:
                    tx_time = (
                        uniform_tx if uniform_tx is not None else link_tx_time(a, b)
                    )
                    end = ends_l[ci]
                    rec = _Session(
                        node_a, node_b, t, end, tx_time, int((end - t) / tx_time)
                    )
                    schedule_next(rec, t)
                fired_append(ci)
                ci += 1
                progressed = True
                break
            if progressed:
                continue
            if h_time > horizon:
                self._settle_futile(ci, fired_idx)
                return False
            entry = heappop(heap)
            entry[4] = False
            engine.now = h_time
            engine.events_fired += 1
            entry[2](*entry[3])
            if engine.halted:
                self._settle_futile(ci, fired_idx)
                return True
