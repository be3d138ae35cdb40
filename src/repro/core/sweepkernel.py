"""The DES execution tier: one contact sweep against the event calendar.

Every discrete-event run executes here: :meth:`Simulation.run
<repro.core.simulation.Simulation.run>` builds a :class:`SweepKernel`,
which sweeps the trace's columnar
:meth:`~repro.mobility.contact.ContactTrace.contact_arrays` form, time
sorted, against the simulation's own event calendar
(:class:`~repro.des.engine.Engine`). The calendar's heap carries only
dynamic events: transfer completions, TTL expiries, link severances,
crashes and recoveries, deferred flow injections. Per-node copy masks —
one bundle bit per offered bundle, held as Python integers, so one
contact's test is ``sendable[a] & ~has[b]`` — and per-node candidate
lists drive transfer selection on both of the kernel's paths, chosen
once per run:

* The **sweep-all path** (``kernel="event"``, and ``kernel="auto"`` on a
  run :func:`kernel_unsupported_reason` refuses) runs every live contact
  through the protocol hooks: both encounter hooks, the control-plane
  swap and the summary vector
  (:func:`~repro.core.session.contact_bookkeeping`), then a session when
  the link carries a bundle. Transfer selection and completion probe
  ``knows_delivered`` on both sides, and every offer, accept, confirm and
  store hook runs. Any population runs here: dynamic TTL, PRoPHET, custom
  and mixed protocol classes.
* The **skip path** (``kernel="soa"``, and ``kernel="auto"`` on an
  eligible run) elides what the population's one class provably leaves
  untouched. For an *encounter-inert* class (pure/ttl/ec/ec_ttl,
  coins-only P-Q, spray) a contact can only matter when one side holds a
  copy the other side lacks. The sweep loop's mask test retires each
  futile contact in place. Every swept contact's per-contact accounting
  (its fired event, a summary vector each way, one control unit per
  endpoint) settles in bulk on return: one counter update each, per-node
  control units in one ``bincount``. Its zero-transfer contacts never
  enter the sweep: they run no hook and move nothing, so an end-of-run
  flush settles their accounting in one pass.

On the skip path, populations that keep delivery knowledge in a stock
store (anti-packet P-Q, immunity, cumulative immunity) add a per-node
**knowledge plane**: the bundle bits the node's store covers (the
i-list's ids, or each cumulative table's prefix). Bundle bits follow
:class:`~repro.core.bundle.BundleId` order, whatever the order of the
flows, so ascending bits are sorted ids. The plane joins the has mask —
it is the knows-delivered veto — and every contact enters the sweep,
zero-transfer ones included, because each one carries the stores. A
contact is futile when the two planes are equal (the swap is a no-op)
and no copy can cross it; a contact whose planes differ swaps the stores
and ends its contact block. A per-bundle store (anti-packet P-Q,
immunity) is swapped on the planes (:meth:`SweepKernel._swap_planes`):
each side is billed its store's size, then b learns ``plane_a &
~plane_b`` and a learns ``plane_b & ~plane_a``, the order of
:func:`~repro.core.knowledge.exchange_control`. A learning side's store
takes the new ids through
:meth:`~repro.core.knowledge.KnowledgeStore.extend`, the copies it holds
of them leave in one bulk removal
(:meth:`~repro.core.simulation.Simulation.remove_copies`), and its
stored-table footprint follows, from the store sizes the kernel keeps.
No control message is built. A cumulative store runs
:func:`~repro.core.knowledge.exchange_control`, since its purge follows
``node.sendable()`` order. A futile contact's control units (the store
size, each way) settle in bulk from a per-node log of store sizes:
knowledge grows at exchanges and deliveries, and shrinks only at a
crash's knowledge wipe, each logged from the first swept contact that
sees it.

An unfaulted run filters nothing per run, so its swept columns (the
list forms the loop reads and the carry flags: the link carries a
bundle) are built once per trace, bundle transfer time and path in a
process and shared by every run on them; a faulted run filters its lost
contacts and builds its own. The loop tests the carry flag before the
copy masks.

The sweep loop tests each contact against the masks as they stand when
it reaches that contact: every copy event, delivery and knowledge change
updates them in place before the next contact is tested.

Under fault injection the contacts a fault removes are array facts fixed
before the run (:meth:`~repro.core.simulation.Simulation._prepare_faults`):
they leave the swept columns and settle their counters and fired events
in bulk. Crashes and recoveries stay calendar events through the service
layer; a knowledge wipe reaches the kernel through
:meth:`SweepKernel.knowledge_wiped`, so a plane can shrink. A swept
session carries the pair's crash epochs and its pre-drawn severance
event, and its completions pass the link gate and the transfer-failure
coin first (:meth:`SweepKernel._complete_faulted`).

**The stream rule.** The swept contacts merge with the heap without being
pushed on it. The sweep reserves one seq per swept contact: contact ``k``
takes seq ``base + k``, where ``base`` is the engine's seq counter when
the sweep starts, so every entry pushed during the sweep gets a seq after
every contact. A contact fires before the heap's head exactly when
``(start_k, base + k) < (head_time, head_seq)``. At one instant, then:

* an entry pushed *before* the sweep (a flow created at t > 0, a crash
  or recovery, an origin copy's expiry) fires before the contact;
* an entry pushed *during* the sweep (a transfer completion, a link
  severance, an expiry re-arm) fires after it.

That is the order pushing every contact with
:meth:`~repro.des.engine.Engine.at`, in trace order, just before the run
would produce; the reference schedule in the test suite does exactly that.

Exactness contract: both paths produce a byte-identical
:class:`~repro.core.results.RunResult` to that reference schedule, and
the skip test is *conservative*: a skipped contact is one whose session
would provably plan nothing, mutate nothing, and draw no randomness
(every candidate exits the predicate chain at the expiry,
receiver-has-copy or receiver-knows-delivered check, all of which precede
the P-Q coin). Everything else — metrics, counters, protocol hooks,
buffer policies — is the same service-layer code on both paths, invoked
in the same order with the same arguments. The golden pins
(``tests/core/test_golden_runs.py``), the skip-vs-sweep-all cases
(``tests/core/test_sweepkernel.py``) and the differential ladder
(``tests/test_ladder.py``) enforce the contract.

Eligibility for the skip path (:func:`kernel_unsupported_reason`): a
homogeneous population, faulted or not, under every ``state_loss`` mode,
whose class is either encounter-inert with the base (constant-false)
``knows_delivered``, or one of the stock knowledge-store classes
(:data:`_KNOWLEDGE_HOOKS`) with every knowledge hook and
``on_encounter_started`` stock, checked by method identity.
``kernel="auto"`` sweeps every contact otherwise; ``kernel="soa"`` fails
fast with the reason.
"""

from __future__ import annotations

import heapq
import math
import weakref
from bisect import bisect_left
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.bundle import BundleId, StoredBundle
from repro.core.knowledge import CumulativeKnowledgeStore, exchange_control
from repro.core.protocols.antipacket import AntiPacketProtocol
from repro.core.protocols.base import Protocol
from repro.core.protocols.immunity import CumulativeImmunityEpidemic
from repro.core.session import contact_bookkeeping
from repro.mobility.contact import zero_transfer_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Container

    from numpy.typing import NDArray

    from repro.core.node import Node
    from repro.core.results import RunResult
    from repro.core.simulation import Simulation
    from repro.mobility.contact import ContactTrace

    #: A trace's contact columns: starts, ends, endpoint a, endpoint b.
    _Columns = tuple[
        NDArray[np.float64], NDArray[np.float64], NDArray[np.intp], NDArray[np.intp]
    ]

#: The stock delivery-knowledge classes the kernel runs with a knowledge
#: plane, each with the hooks whose stock behaviour the plane mirrors: the
#: store's swap, its purge-on-learn and its size as the signaling bill.
_KNOWLEDGE_HOOKS: dict[type[Protocol], tuple[str, ...]] = {
    AntiPacketProtocol: (
        "control_payload",
        "receive_control",
        "control_units",
        "learn_delivered",
        "_sync_table_storage",
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
    """Why the skip path cannot execute ``sim``, or None when it can.

    ``kernel="auto"`` sweeps every contact when this returns a reason;
    ``kernel="soa"`` surfaces it in a ``ValueError`` instead. The
    conditions mirror what the skip path structurally elides: control
    exchange other than a stock knowledge store's, and delivery-knowledge
    probes outside such a store (``knows_delivered`` overrides). Fault
    injection is no condition: both paths run the disruption model.
    """
    if sim.config.engine != "des":
        return f"engine={sim.config.engine!r} does not execute discrete events"
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
    return None


class _Session:
    """One live contact's exchange state: the slot clock and budget, and
    the (sender, bundle) pairs whose P-Q coin failed this contact.

    Under faults :meth:`SweepKernel._arm_faults` also stamps the pair's
    crash epochs (``epoch_a``, ``epoch_b``), the ``severed`` flag its
    pre-drawn severance sets, the contact's swept index ``ci``, and
    ``last``, the time of the session's latest completion (None before
    the first); unfaulted sessions leave those slots unset.
    """

    __slots__ = (
        "node_a", "node_b", "end", "tx_time", "budget", "t_cursor", "coin_rejected",
        "epoch_a", "epoch_b", "severed", "ci", "last",
    )
    epoch_a: int
    epoch_b: int
    severed: bool
    ci: int
    last: float | None

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

    def _on_severed(self) -> None:
        """Pre-drawn mid-contact link interruption: the radios lose sync."""
        self.severed = True


class _Swept:
    """The contacts one sweep visits, in trace order: the NumPy columns the
    bulk settlements read, and the list columns and carry flags (the link
    carries a bundle) the sweep loop reads."""

    __slots__ = ("starts", "a", "b", "starts_l", "ends_l", "a_l", "b_l", "carry_l")

    def __init__(
        self,
        starts: NDArray[np.float64],
        ends: NDArray[np.float64],
        a: NDArray[np.intp],
        b: NDArray[np.intp],
        carry: NDArray[np.bool_],
    ) -> None:
        self.starts = starts
        self.a = a
        self.b = b
        self.starts_l: list[float] = starts.tolist()
        self.ends_l: list[float] = ends.tolist()
        self.a_l: list[int] = a.tolist()
        self.b_l: list[int] = b.tolist()
        self.carry_l: list[bool] = carry.tolist()


#: The swept columns of the last unfaulted run in this process, for the
#: runs that follow it on the same trace: (a weak reference to the trace,
#: its bundle transfer time, the path's ``inert`` flag, the trace's
#: zero-transfer mask, the columns). They are a pure function of those
#: keys, so no run sees another trace's columns. One entry, not one per
#: live trace: a sweep on a shared trace runs its cells on it one after
#: another, and an entry per trace raised ``ode_gate_250k``'s peak RSS by
#: 13.5%, because its gate keeps its 12 reference traces alive.
_last_swept: (
    tuple[
        weakref.ReferenceType[ContactTrace],
        float | tuple[float, ...],
        bool,
        NDArray[np.bool_],
        _Swept,
    ]
    | None
) = None


def _shared_swept(
    trace: ContactTrace,
    tx_time: float | tuple[float, ...],
    inert: bool,
    arrays: _Columns,
) -> tuple[NDArray[np.bool_], _Swept]:
    """The zero-transfer mask and the swept columns of an unfaulted run on
    ``trace``: every contact, or for an inert skip-path sweep (``inert``)
    the ones that carry a bundle. Shared, read-only, with the next run on
    the same trace, transfer time and path."""
    global _last_swept
    last = _last_swept
    if last is not None and last[0]() is trace and last[1] == tx_time and last[2] is inert:
        return last[3], last[4]
    zero_mask = zero_transfer_mask(trace, tx_time, arrays=arrays)
    if inert:
        live = np.flatnonzero(~zero_mask)
        starts, ends, a_ids, b_ids = (column[live] for column in arrays)
        swept = _Swept(starts, ends, a_ids, b_ids, np.ones(len(live), dtype=np.bool_))
    else:
        swept = _Swept(*arrays, ~zero_mask)
    # shared by the runs that read them, like the trace's columns
    zero_mask.flags.writeable = False
    swept.starts.flags.writeable = False
    swept.a.flags.writeable = False
    swept.b.flags.writeable = False
    _last_swept = (weakref.ref(trace), tx_time, inert, zero_mask, swept)
    return zero_mask, swept


class SweepKernel:
    """One run's array-resident sweep state; single-use like Simulation.

    ``sweep_all`` picks the path: every contact through the protocol hooks
    (True), or the skip path for an eligible population (False).
    """

    # Slots keep every ``self._x`` load on the hot paths a fixed-offset
    # read: past 30 attributes CPython stops sharing instance-dict keys,
    # and the specialized attribute loads fall back to a slower path.
    __slots__ = (
        "sim", "_engine", "_nodes", "_n", "_col", "_snd_bits", "_has_bits",
        "_cand_keys", "_cand_sbs", "_cand_bits", "_dest_counts", "_ctrl_np",
        "_trivial_offer", "_trivial_confirm", "_trivial_accept",
        "_trivial_store", "_pure_offer", "_rentries", "_rcaps", "_sweep_all",
        "_origins", "_live_starts", "_live_a", "_live_b", "_knowledge",
        "_know_bits", "_know_size", "_size_keys", "_size_vals", "_stride",
        "_know_units", "_on_complete", "_lost", "_sev", "_halt_rank", "_bids",
        "_plane_swap",
    )

    def __init__(self, sim: Simulation, sweep_all: bool = False) -> None:
        self.sim = sim
        self._sweep_all = sweep_all
        self._engine = sim.engine
        nodes = sim.nodes
        self._nodes = nodes
        self._n = len(nodes)
        # bundle-id → mask bit position over the full offered population,
        # in BundleId order whatever the order of the flows: ascending
        # bits are sorted ids, the order KnowledgeStore.merge learns them
        col: dict[BundleId, int] = {}
        for flow in sorted(sim.flows, key=lambda flow: flow.flow_id):
            flow_id = flow.flow_id
            for seq in range(1, flow.num_bundles + 1):
                col[BundleId(flow=flow_id, seq=seq)] = len(col)
        self._col = col
        #: mask bit position → bundle id
        self._bids: list[BundleId] = list(col)
        n = self._n
        #: node holds a live (origin or relay) copy — possibly expired at
        #: the current instant, which the candidate rule's expiry test rejects
        self._snd_bits: list[int] = [0] * n
        #: node holds a copy, is the (delivered-to) destination, or knows
        #: the bundle was delivered (its knowledge plane) — the candidate
        #: rule's receiver-has-it and receiver-knows-delivered vetoes
        self._has_bits: list[int] = [0] * n
        # per-node candidate order: (stored_at, bid) keys + parallel copies
        # and bundle bits (the candidate rule's total order, maintained
        # incrementally), plus a per-destination tally so the
        # peer-destined-first pass can skip scanning when the sender holds
        # nothing addressed to this receiver
        self._cand_keys: list[list[tuple[float, BundleId]]] = [[] for _ in range(n)]
        self._cand_sbs: list[list[StoredBundle]] = [[] for _ in range(n)]
        self._cand_bits: list[list[int]] = [[] for _ in range(n)]
        self._dest_counts: list[dict[int, int]] = [{} for _ in range(n)]
        # per-contact control units of the swept contacts, settled
        # vectorized at end of run — an order-independent sum
        self._ctrl_np: NDArray[np.int64] = np.zeros(n, dtype=np.int64)
        if sweep_all:
            # every hook runs, for any mix of classes
            self._trivial_offer = self._trivial_confirm = self._trivial_accept = False
            self._trivial_store = self._knowledge = self._plane_swap = False
        else:
            # the skip path's shortcuts, by method identity on the
            # population's one class
            proto_cls = type(nodes[0].protocol)
            self._trivial_offer = proto_cls.should_offer is Protocol.should_offer
            self._trivial_confirm = proto_cls.confirm_transfer is Protocol.confirm_transfer
            self._trivial_accept = proto_cls.can_accept is Protocol.can_accept
            # whole-chain gate for the inlined relay-store path in
            # _complete: no protocol hook anywhere between transmission and
            # candidate registration (base on_transmitted / accept /
            # on_copy_received), and no re-infection that
            # store_received_copy would have to count: the base
            # on_knowledge_wiped forgets nothing — pure epidemic and
            # coin-flip P-Q qualify, faulted or not. Kept as measured: with
            # it off, bench/run.py's 60 rwp200_soa_cold cells took 1.62 s
            # in place of 1.26 s (one run, shared 2-vCPU VM)
            self._trivial_store = (
                self._trivial_confirm
                and proto_cls.on_transmitted is Protocol.on_transmitted
                and proto_cls.accept is Protocol.accept
                and proto_cls.on_copy_received is Protocol.on_copy_received
                and (
                    sim.faults is None
                    or proto_cls.on_knowledge_wiped is Protocol.on_knowledge_wiped
                )
            )
            #: the population keeps delivery knowledge in a stock store
            #: (eligibility admits no other non-inert class)
            self._knowledge = not proto_cls.encounter_inert
            #: ... a per-bundle one, which the sweep swaps on the planes
            #: (_swap_planes); a cumulative store keeps exchange_control,
            #: whose purge follows node.sendable() order
            self._plane_swap = issubclass(proto_cls, AntiPacketProtocol)
        # fully-trivial substrate (pure epidemic): every candidate predicate
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
        self._origins: list[dict[BundleId, StoredBundle]] = [
            node.origin for node in nodes
        ]
        # the completion action the calendar runs: the fault gates wrap
        # _complete only when the run injects faults (chosen once per run)
        self._on_complete = self._complete if sim.faults is None else self._complete_faulted
        #: per trace contact: dropped, or an endpoint down at its start
        #: (set by _drive under faults; such a contact never happens)
        self._lost: NDArray[np.bool_] | None = None
        #: per swept contact: when its session's pre-drawn severance fires,
        #: inf when it has none (set by _drive under interruptions)
        self._sev: NDArray[np.float64] | None = None
        #: swept contacts that ran before the halting completion was pushed
        self._halt_rank = 0
        # swept-contact columns (filled by _drive)
        self._live_starts: NDArray[np.float64] = np.empty(0, dtype=np.float64)
        self._live_a: NDArray[np.intp] = np.empty(0, dtype=np.intp)
        self._live_b: NDArray[np.intp] = np.empty(0, dtype=np.intp)
        # ---- the delivery-knowledge plane: all zero for an inert
        # population, whose sweep then reduces to the copy-mask test.
        # Kept as measured on a shared 2-vCPU VM: with the plane off (the
        # sweep-all path) the rwp200_event_antipacket cells took 1.46 s in
        # place of 0.69 s (one run), and billing futile knowledge contacts
        # inline in place of the store-size log was slower there in 6 of 8
        # alternating pairs
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
            #: store-size log: key ``node * stride + pos`` says the node's
            #: size is the parallel value from swept contact ``pos`` on
            #: (_drive seeds it once the contact count is known)
            self._size_keys: list[int] = []
            self._size_vals: list[int] = []
            self._stride = 1

    # ----------------------------------------------------- state observation
    # (Simulation calls these on every copy-population change; they keep the
    # masks and candidate orders exact without polling node buffers.)

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
        sbs = self._cand_sbs[nid]
        try:
            # StoredBundle compares by identity: a C-level scan, no key
            # comparisons
            i = sbs.index(sb)
        except ValueError:
            # never registered: copy_added saw it already gone
            return
        del sbs[i]
        del self._cand_keys[nid][i]
        del self._cand_bits[nid][i]
        self._dest_counts[nid][sb.bundle.destination] -= 1

    def copies_removed(self, node: Node, removed: list[StoredBundle]) -> None:
        """:meth:`copy_removed` for a bulk removal: the mask bits of every
        copy cleared at once. Every copy is registered, since a copy
        :meth:`copy_added` saw already gone is no live copy to remove."""
        nid = node.id
        col = self._col
        keys = self._cand_keys[nid]
        sbs = self._cand_sbs[nid]
        bits = self._cand_bits[nid]
        counts = self._dest_counts[nid]
        gone = 0
        for sb in removed:
            bundle = sb.bundle
            gone |= 1 << col[bundle.bid]
            i = sbs.index(sb)
            del sbs[i]
            del keys[i]
            del bits[i]
            counts[bundle.destination] -= 1
        self._snd_bits[nid] &= ~gone
        self._has_bits[nid] &= ~gone

    def delivered(self, node: Node, bid: BundleId) -> None:
        self._has_bits[node.id] |= 1 << self._col[bid]

    def knowledge_wiped(self, node: Node) -> None:
        """A crash wiped ``node``'s knowledge store: its plane shrinks.

        The plane, the has mask (held copies, deliveries here, and the
        plane) and the store-size log are rebuilt from the node's state. A
        crash is pushed before the run, so its seq lies below the swept
        block: contacts starting at its instant already see the new size.
        """
        if not self._knowledge:
            return
        nid = node.id
        size = len(node.protocol.knowledge)
        if not size and not self._know_bits[nid]:
            # nothing known before, nothing now: the masks stand
            return
        plane = self._plane_of(node) if size else 0
        self._know_bits[nid] = plane
        col = self._col
        has = self._snd_bits[nid] | plane
        for bid in node.delivered:
            has |= 1 << col[bid]
        self._has_bits[nid] = has
        if size != self._know_size[nid]:
            self._know_size[nid] = size
            pos = int(np.searchsorted(self._live_starts, self._engine.now, side="left"))
            self._size_keys.append(nid * self._stride + pos)
            self._size_vals.append(size)

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
        size = len(self._nodes[nid].protocol.knowledge)
        if size != self._know_size[nid]:
            self._know_size[nid] = size
            self._size_keys.append(nid * self._stride + pos)
            self._size_vals.append(size)

    def _swap_planes(self, a: int, b: int, plane_a: int, plane_b: int, pos: int) -> None:
        """The stock per-bundle swap of
        :func:`~repro.core.knowledge.exchange_control`, worked on the planes
        of ``a`` and ``b``; swept contact ``pos`` on sees both know the
        union.

        Each side is billed its store's size, a's first. Then b learns
        ``plane_a & ~plane_b`` and a learns ``plane_b & ~plane_a``, in that
        order, since each side's control-storage delta is a fractional
        float add: its store takes the new ids in ascending (BundleId)
        order, the copies it holds of them go in one bulk removal, and its
        stored-table footprint follows. A side that learns nothing is left
        alone, as ``learn_delivered`` leaves it.
        """
        size = self._know_size
        nodes = self._nodes
        node_a = nodes[a]
        node_b = nodes[b]
        units_a = size[a]
        units_b = size[b]
        self._know_units += units_a + units_b
        node_a.counters.control_units_sent += units_a
        node_b.counters.control_units_sent += units_b
        union = plane_a | plane_b
        sim = self.sim
        bids = self._bids
        snd = self._snd_bits
        hasb = self._has_bits
        know = self._know_bits
        sides = ((b, node_b, plane_a & ~plane_b), (a, node_a, plane_b & ~plane_a))
        for nid, node, fresh in sides:
            know[nid] = union
            if not fresh:
                continue
            held = snd[nid] & fresh
            grown = size[nid] + fresh.bit_count()
            size[nid] = grown
            self._size_keys.append(nid * self._stride + pos)
            self._size_vals.append(grown)
            fresh_ids = []
            purged = []
            while fresh:
                low = fresh & -fresh
                bid = bids[low.bit_length() - 1]
                fresh_ids.append(bid)
                if low & held:
                    purged.append(bid)
                fresh ^= low
            protocol = node.protocol
            protocol.knowledge.extend(fresh_ids)
            if purged:
                sim.remove_copies(node, purged, "immunized")
            # the plane is the receiver-has veto; the purge just cleared
            # the has bits of the copies it took, so OR the plane back in
            hasb[nid] |= union
            # _sync_table_storage, with the store's size kept here
            sim.set_control_storage(node, grown * protocol.table_slot_fraction)

    def _sizes_at(self, ids: NDArray[np.intp]) -> NDArray[np.float64]:
        """Store size of node ``ids[j]`` as swept contact ``j`` saw it."""
        keys = np.asarray(self._size_keys, dtype=np.int64)
        # appended in sweep order; a stable sort groups them per node
        order = np.argsort(keys, kind="stable")
        # the contacts grouped per node too (a radix sort on 16-bit ids),
        # so the queries ascend and each binary search starts where the
        # last one ended: about half the time of unsorted queries
        by_node = np.argsort(
            ids.astype(np.uint16) if self._n <= 1 << 16 else ids, kind="stable"
        )
        queries = ids[by_node].astype(np.int64) * self._stride + by_node
        at = np.searchsorted(keys[order], queries, side="right") - 1
        sizes = np.empty(len(ids), dtype=np.float64)
        sizes[by_node] = np.asarray(self._size_vals, dtype=np.float64)[order[at]]
        return sizes

    # -------------------------------------------------------------- planning
    # The candidate rule (repro.core.session has the encounter semantics):
    # node a, the lower id, sends first; within a sender, bundles destined
    # for the peer first, then oldest stored, ties broken by bundle id. A
    # bundle is a candidate only if it is unexpired, its P-Q coin has not
    # failed this contact, the receiver lacks it, neither side knows it was
    # delivered, and the receiver can take it. None of those predicates
    # draws randomness, so visiting them lazily, interleaved with
    # ``should_offer``, calls the coin on the same bundles in the same order
    # as filtering everything first.

    def _first_offer(
        self, rec: _Session, sender: Node, receiver: Node, now: float, want: int
    ) -> StoredBundle | None:
        # ``want`` = sender's sendable bits the receiver lacks — candidates
        # outside it exit the predicate chain at the receiver-has-copy (or,
        # with a knowledge plane, receiver-knows-delivered) check, so
        # filtering by bit visits the candidates the rule inspects further,
        # in its exact (tier, stored_at, bid) order.
        sender_id = sender.id
        rid = receiver.id
        coin_rejected: Container[tuple[int, BundleId]] = rec.coin_rejected or ()
        # the sweep-all path probes delivery knowledge; the skip path's
        # knowledge plane is in the has mask
        probe_known = self._sweep_all
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
                # on the skip path both knows_delivered probes are elided:
                # the receiver's knowledge plane is in its has mask, so
                # ``want`` already excludes it, and a sender never holds a
                # copy it knows was delivered (learning purges it)
                if probe_known and (
                    receiver_protocol.knows_delivered(bid)
                    or sender_protocol.knows_delivered(bid)
                ):
                    continue
                # base can_accept is constant-true here (the candidate is
                # destined for the receiver)
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
        # candidates in the candidate rule's exact two-tier order
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
            if probe_known and (
                receiver_protocol.knows_delivered(bid) or sender_protocol.knows_delivered(bid)
            ):
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
        # Kept as measured on a shared 2-vCPU VM: forcing _first_offer on
        # pure cells took serial `run tradeoff --scale paper` from a median
        # 36.9 s to 41.1 s of CPU, slower in 3 of 4 alternating pairs.
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
            slot_end, engine.seq, self._on_complete, (rec, sender, receiver, sb), True
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
        # receiver.has_copy probe via the exact has mask (relay ∪ origin
        # ∪ delivered, and the knowledge plane), sender.get_copy via the
        # cached store views. The receiver may have obtained the bundle, or
        # either side learned it was delivered, mid-flight: a sender that
        # knows it arrived aborts the now pointless transmission.
        if self._has_bits[rid] & bit or self._sweep_all and (
            receiver.protocol.knows_delivered(bid) or sender.protocol.knows_delivered(bid)
        ):
            metrics.on_wasted_slot()
            self._schedule_next(rec, now)
            return
        # sender.get_copy(bid) is sb, probing only the store sb lives in
        store = self._origins if sb.is_origin else self._rentries
        still_held = store[sender.id].get(bid) is sb
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
            stored = StoredBundle(sb.bundle, now, False, sb.ec)
            # relay.add, inlined: the duplicate and capacity guards are
            # discharged by the has-bit probe and the gate above
            self._rentries[rid][bid] = stored
            receiver.counters.bundles_received += 1
            metrics.on_relay_copy_stored(bid, now)
            self._snd_bits[rid] |= bit
            self._has_bits[rid] |= bit
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
            # sender-side bookkeeping first: EC increments before the
            # receiver's copy inherits the value (the paper's EC example)
            sender.protocol.on_transmitted(sb, receiver, now)
            ec_for_receiver = sb.ec
        else:
            # the copy vanished mid-flight, but its bits are on the air:
            # the receiver's copy still carries the incremented count. On
            # the skip path a sender that learned the bundle arrived aborts
            # here: learning purged its copy, so only a vanished copy can
            # hide that knowledge
            if self._know_bits[sender.id] & bit:
                metrics.on_wasted_slot()
                self._schedule_next(rec, now)
                return
            ec_for_receiver = sb.ec + 1
        sender.counters.bundles_sent += 1
        metrics.on_transmission()
        if sb.bundle.destination == receiver.id:
            sim.deliver(receiver, sb.bundle, now)
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

    def _complete_faulted(
        self, rec: _Session, sender: Node, receiver: Node, sb: StoredBundle
    ) -> None:
        """A completion under faults: the link gate, the failure coin, then
        :meth:`_complete`.

        Nothing inside one completion crashes a node or severs a link, so
        the link checked alive here stays alive for every reschedule the
        completion makes. The transfer-failure coin is drawn per completed
        slot on a live link, in calendar order.
        """
        sim = self.sim
        engine = self._engine
        now = engine.now
        pushed = rec.last
        rec.last = now
        crashes = sim._crash_count
        if (
            rec.severed
            or crashes[rec.node_a.id] != rec.epoch_a
            or crashes[rec.node_b.id] != rec.epoch_b
        ):
            # the link died while the bits were in flight: the slot is
            # spent, nothing arrives, and the session is over
            rec.budget -= 1
            sim.metrics.churn.interrupted_transfers += 1
            return
        if sim._transfer_failed():
            # the slot is charged, the link survives, the session may retry
            rec.budget -= 1
            sim.metrics.churn.failed_transfers += 1
            self._schedule_next(rec, now)
            return
        self._complete(rec, sender, receiver, sb)
        if engine.halted:
            # the swept contacts that ran before this completion was pushed:
            # those before its contact, or every one that started by the
            # completion that pushed it (a completion's seq lies above the
            # swept block)
            self._halt_rank = (
                rec.ci
                if pushed is None
                else int(np.searchsorted(self._live_starts, pushed, side="right"))
            )

    def _arm_faults(self, rec: _Session, ci: int) -> None:
        """Stamp a new session with the pair's crash epochs and push its
        pre-drawn severance, before the first slot is planned."""
        crashes = self.sim._crash_count
        rec.epoch_a = crashes[rec.node_a.id]
        rec.epoch_b = crashes[rec.node_b.id]
        rec.severed = False
        rec.ci = ci
        rec.last = None
        sev = self._sev
        if sev is not None:
            t = float(sev[ci])
            if t != math.inf:
                self._engine.at(t, rec._on_severed)

    # -------------------------------------------------------- swept contacts

    def _settle_swept(
        self, ci: int, fired_idx: list[int], end_time: float, halted: bool
    ) -> None:
        """One-shot accounting for the swept contacts ``[0, ci)``.

        Each swept contact is a fired event. On the skip path each one also
        owes what :func:`~repro.core.session.contact_bookkeeping` charges
        every pair: a summary vector each way and one control unit per
        endpoint. They settle here as whole-prefix bincounts —
        order-independent sums, exactly as the sweep-all path tallies them
        one encounter at a time. The sweep loop records which contacts it
        ran (``fired_idx``); everything else it advanced past is futile.
        With a knowledge plane each futile contact also carried both
        (equal) stores: ``len(store)`` units each way, at the size that
        contact saw. Under interruptions a futile carrying contact's idle
        session still had its severance pushed, a no-op event that fired
        if it came before the run's end: before ``end_time``, or at it
        when pushed before the halting completion.
        """
        self._engine.events_fired += ci
        if self._sweep_all or not ci:
            # every contact ran contact_bookkeeping
            return
        self.sim.metrics.on_batched_contacts(ci)
        minlength = self._n
        live_a = self._live_a[:ci]
        live_b = self._live_b[:ci]
        units = np.bincount(live_a, minlength=minlength)
        units += np.bincount(live_b, minlength=minlength)
        fi = np.asarray(fired_idx, dtype=np.intp)
        if self._knowledge:
            # equal planes are equal stores, so endpoint a's size is both's
            sizes = self._sizes_at(live_a)
            sizes[fi] = 0.0
            units += np.bincount(live_a, weights=sizes, minlength=minlength).astype(np.int64)
            units += np.bincount(live_b, weights=sizes, minlength=minlength).astype(np.int64)
            self._know_units += 2 * int(sizes.sum())
        self._ctrl_np += units
        if self._sev is not None:
            sev = self._sev[:ci].copy()
            sev[fi] = math.inf
            ties = sev == end_time
            if halted:
                ties[self._halt_rank :] = False
            self._engine.events_fired += int(np.count_nonzero((sev < end_time) | ties))

    # ------------------------------------------------------------------ run

    def run(self, horizon: float) -> RunResult:
        """Execute the swept run and build its result.

        Every service-layer ``engine.at``/``cancel``/``halt``/``now``
        lands on the simulation's engine, which the sweep loop drives
        directly. Afterwards the skipped contacts count as fired events,
        the clock moves to the end time, and for an inert population on
        the skip path the end-of-run flush settles the contacts the sweep
        left out — so both paths build the result from the same state.
        """
        sim = self.sim
        engine = self._engine
        arrays = sim.trace.contact_arrays()
        # an inert skip-path sweep leaves the zero-transfer contacts out
        # (the flush settles them); the other sweeps visit every contact
        inert = not (self._knowledge or self._sweep_all)
        swept: _Swept | None = None
        if sim.faults is None:
            # nothing is filtered per run: every unfaulted run on this
            # trace at this bundle_tx_time sweeps the same columns
            zero_mask, swept = _shared_swept(
                sim.trace, sim.config.bundle_tx_time, inert, arrays
            )
        else:
            zero_mask = zero_transfer_mask(sim.trace, sim.config.bundle_tx_time, arrays=arrays)
        sim._state_observer = self
        try:
            halted = self._drive(horizon, arrays, zero_mask, inert, swept)
        finally:
            sim._state_observer = None
        end_time = engine.now if halted else horizon
        engine.now = end_time
        if self._know_units:
            sim.metrics.signaling.add(self._nodes[0].protocol.control_kind, self._know_units)
        for node, units in zip(self._nodes, self._ctrl_np.tolist(), strict=True):
            if units:
                node.counters.control_units_sent += units
        lost = self._lost
        if lost is not None:
            sim._settle_lost(lost, arrays[0], end_time)
        if inert:
            # an inert skip-path sweep left the zero-transfer contacts out;
            # the other sweeps left none out; a lost contact owes nothing
            left_out = zero_mask if lost is None else zero_mask & ~lost
            self._flush_deferred_bookkeeping(left_out, end_time, arrays)
        return sim._build_result()

    def _flush_deferred_bookkeeping(
        self, left_out: NDArray[np.bool_], end_time: float, arrays: _Columns
    ) -> None:
        """Settle the accounting of the contacts an inert sweep left out.

        ``left_out`` flags the zero-transfer contacts, which an inert sweep
        never visits. Each one that started by ``end_time`` owes what
        :func:`~repro.core.session.contact_bookkeeping` charges an inert
        pair: the summary vector each way and one control unit per
        endpoint. They count as batched encounters, which with the fired
        events make the sweep-all path's event count. Contacts past
        ``end_time`` are excluded exactly as the sweep would have left
        them unfired: an early-delivery halt happens in a
        transfer-completion event, which by the stream rule fires *after*
        every contact of the same timestamp.
        """
        sim = self.sim
        starts, _ends, a_ids, b_ids = arrays
        fired = int(np.searchsorted(starts, end_time, side="right"))
        zmask = left_out[:fired]
        batched = int(zmask.sum())
        if not batched:
            return
        nodes = self._nodes
        sim.batched_encounters += batched
        sim.metrics.on_batched_contacts(batched)
        counts = np.bincount(a_ids[:fired][zmask], minlength=len(nodes))
        counts += np.bincount(b_ids[:fired][zmask], minlength=len(nodes))
        for node, encounters in zip(nodes, counts.tolist(), strict=True):
            if encounters:
                node.counters.control_units_sent += encounters

    def _drive(
        self,
        horizon: float,
        arrays: _Columns,
        zero_mask: NDArray[np.bool_],
        inert: bool,
        swept: _Swept | None,
    ) -> bool:
        """Set up the swept columns and run the sweep loop.

        ``swept`` is the unfaulted run's shared columns; a faulted run
        (None) filters its own. Returns True when the run halted early.
        """
        sim = self.sim
        engine = self._engine
        # flow injection before the sweep: t=0 flows run now (their expiry
        # pushes take the first seqs), later flows park on the calendar
        for flow in sim.flows:
            if flow.created_at == 0.0:
                sim._inject_flow(flow)
            else:
                engine.at(flow.created_at, sim._inject_flow, flow)
        if swept is None:
            # the swept contacts of a faulted run: not the lost ones, and
            # for an inert skip-path sweep not the zero-transfer ones.
            # After the flows: crashes and recoveries take the next seqs
            lost = self._lost = sim._prepare_faults(horizon, arrays)
            keep = ~zero_mask & ~lost if inert else ~lost
            live = np.flatnonzero(keep)
            starts, ends, a_ids, b_ids = (column[live] for column in arrays)
            # a session opens, and a copy crosses, only where the link
            # carries a bundle
            carry = ~zero_mask[live]
            severed_at = sim._contact_severed_at
            if severed_at is not None:
                # a severance is pushed for a session (a carrying contact)
                # and only when it falls before the contact's end
                severed_at = severed_at[live]
                self._sev = np.where((severed_at < ends) & carry, severed_at, math.inf)
            swept = _Swept(starts, ends, a_ids, b_ids, carry)
        starts = swept.starts
        self._live_starts = starts
        self._live_a = swept.a
        self._live_b = swept.b
        if self._knowledge:
            # every contact carries the stores, so the size log spans them all
            self._stride = stride = len(starts) + 1
            self._size_keys = [nid * stride for nid in range(self._n)]
            self._size_vals = list(self._know_size)
            for nid, plane in enumerate(self._know_bits):
                self._has_bits[nid] |= plane
        # the swept contacts' seq block: the tie-break in the sweep loop is
        # the stream rule (module docstring)
        contact_base = engine.seq
        engine.seq = contact_base + len(starts)
        n_fire = int(np.searchsorted(starts, horizon, side="right"))
        return self._sweep(
            horizon,
            contact_base,
            n_fire,
            swept.starts_l,
            swept.ends_l,
            swept.a_l,
            swept.b_l,
            swept.carry_l,
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

        On the sweep-all path no contact is futile: each one runs
        :func:`~repro.core.session.contact_bookkeeping`. On the skip path
        a contact is futile when its two knowledge planes are equal and no
        copy can cross it. A contact whose planes differ runs the stock
        swap (:meth:`_swap_planes` for a per-bundle store,
        :func:`~repro.core.knowledge.exchange_control` for a cumulative
        one); both endpoints then know the union, and the contact block
        ends. A contact with equal planes that a copy can cross owes the
        swap's bill only. Any of them opens a session when its link
        carries a bundle. An inert population's planes are all zero and
        every contact it sweeps carries, so only the copy-mask test is
        live. The per-contact accounting settles on return
        (:meth:`_settle_swept`).
        """
        sim = self.sim
        engine = self._engine
        nodes = self._nodes
        link_tx_time = sim.link_tx_time
        uniform_tx = sim._uniform_tx_time
        schedule_next = self._schedule_next
        learned = self._learned
        swap_planes = self._swap_planes
        plane_swap = self._plane_swap
        snd = self._snd_bits
        hasb = self._has_bits
        knowledge = self._knowledge
        know = self._know_bits
        know_size = self._know_size
        faulted = sim.faults is not None
        sweep_all = self._sweep_all
        arm_faults = self._arm_faults
        heap = engine.heap
        heappop = heapq.heappop
        inf = math.inf
        ci = 0
        # indexes of contacts that fired; every other contact in [0, ci) is
        # futile. The per-contact accounting of every swept contact (event
        # count, summary vectors, control units) and the store bills of the
        # futile ones settle in one vectorized pass on return
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
            # dynamic event in (time, seq) order. The first contact that is
            # not futile runs and ends the block.
            progressed = False
            while ci < n_fire:
                t = starts_l[ci]
                # the stream rule: contact ci is seq contact_base + ci
                if t > h_time or (t == h_time and contact_base + ci >= h_seq):
                    break
                a = a_l[ci]
                b = b_l[ci]
                # the carry and copy tests first, and the plane test and the
                # path test behind the run's flags: an inert sweep (planes
                # all zero, every contact carrying) then pays three local
                # tests per futile contact, and a knowledge sweep no mask
                # work at a contact that cannot carry a bundle
                if not (
                    carry_l[ci] and ((snd[a] & ~hasb[b]) or (snd[b] & ~hasb[a]))
                    or knowledge and know[a] != know[b]
                    or sweep_all
                ):
                    # futile: retire inline (accounting settles on return)
                    ci += 1
                    continue
                engine.now = t
                node_a = nodes[a]
                node_b = nodes[b]
                if sweep_all:
                    contact_bookkeeping(sim, node_a, node_b, t)
                elif knowledge:
                    plane_a = know[a]
                    plane_b = know[b]
                    if plane_a != plane_b:
                        if plane_swap:
                            swap_planes(a, b, plane_a, plane_b, ci + 1)
                        else:
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
                if carry_l[ci]:
                    tx_time = (
                        uniform_tx if uniform_tx is not None else link_tx_time(a, b)
                    )
                    end = ends_l[ci]
                    rec = _Session(
                        node_a, node_b, t, end, tx_time, int((end - t) / tx_time)
                    )
                    if faulted:
                        arm_faults(rec, ci)
                    schedule_next(rec, t)
                fired_append(ci)
                ci += 1
                progressed = True
                break
            if progressed:
                continue
            if h_time > horizon:
                self._settle_swept(ci, fired_idx, horizon, False)
                return False
            entry = heappop(heap)
            entry[4] = False
            engine.now = h_time
            engine.events_fired += 1
            entry[2](*entry[3])
            if engine.halted:
                self._settle_swept(ci, fired_idx, h_time, True)
                return True
