"""The simulation driver: one run = one protocol × one trace × one workload.

Wiring: the trace's contact starts stream through the DES engine's run loop
(:mod:`repro.des.engine`); each contact that can carry a bundle spawns a
:class:`~repro.core.session.ContactSession` which schedules per-bundle
transfer completions. TTL expiries are first-class events so occupancy and
duplication integrals change at the *right* instant even when a node sits
idle. The run ends when every offered bundle is delivered (success — the
delay metric is that instant) or when the trace horizon is reached first
(failure — the paper records no delay, but delivery ratio, occupancy and
duplication still count).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.bundle import NO_EXPIRY, Bundle, BundleId, StoredBundle
from repro.core.metrics import MetricsCollector
from repro.core.node import Node
from repro.core.planner import IncrementalPlanner
from repro.core.policies import make_drop_policy
from repro.core.protocols.registry import ProtocolConfig
from repro.core.results import RunResult
from repro.core.session import ContactSession, contact_bookkeeping
from repro.core.workload import Flow, total_offered
from repro.des.engine import Engine
from repro.des.rng import RngHub
from repro.faults import FaultSpec
from repro.mobility.contact import ContactTrace, zero_transfer_mask
from repro.validation import require_bool, require_int

#: Sweep-cell execution engines: the event simulator and the mean-field
#: surrogate (:mod:`repro.analytic.surrogate`).
ENGINES: tuple[str, ...] = ("des", "ode")

#: DES execution kernels: ``auto`` picks the SoA sweep kernel
#: (:mod:`repro.core.sweepkernel`) when the run is eligible and falls back
#: to the event loop otherwise; ``event``/``soa`` pin one tier.
KERNELS: tuple[str, ...] = ("auto", "event", "soa")


@dataclass(frozen=True)
class SimulationConfig:
    """Mechanism parameters common to every protocol (paper Section IV).

    Attributes:
        buffer_capacity: Relay buffer slots per node (paper: 10 bundles).
            Either one scalar for a homogeneous population or a sequence
            with one entry per node (heterogeneous devices — e.g. a few
            high-capacity ferries among constrained sensors).
        bundle_tx_time: Seconds to transmit one bundle (paper: 100 s —
            bundles are large; a contact of duration d carries
            floor(d / bundle_tx_time) bundles). Scalar, or one entry per
            node; a contact between two nodes moves bundles at the pace of
            the *slower* radio (``pair_tx_time``).
        drop_policy: Registered buffer drop policy consulted when a full
            relay buffer receives a new copy (see
            :mod:`repro.core.policies`). The default ``reject`` reproduces
            the historical drop-tail-refusal behaviour exactly. Protocols
            with an intrinsic eviction rule (EC, EC+TTL) keep their own
            rule regardless of this knob.
        record_occupancy: Record the per-change ``(time, fill)`` occupancy
            series on the metrics collector (and in the
            :class:`~repro.core.results.RunResult`). Off by default —
            sweeps normally consume only the distilled scalars and should
            not pay an append per buffer delta.
        engine: Which engine executes a sweep cell: ``"des"`` (this
            event-driven simulator) or ``"ode"`` (the mean-field surrogate,
            :func:`repro.analytic.surrogate.surrogate_run`). The sweep
            layer dispatches on this; :class:`Simulation` itself always
            runs event-driven.
        kernel: Which DES execution kernel carries the run: ``"event"``
            (the event heap, always available), ``"soa"`` (the
            array-resident contact-sweep kernel,
            :mod:`repro.core.sweepkernel` — unfaulted populations of an
            encounter-inert protocol or of a stock knowledge-store one:
            anti-packet P-Q, immunity, cumulative immunity;
            byte-identical results), or
            ``"auto"`` (default: the kernel when eligible, the event loop
            otherwise). ``"soa"`` fails fast — at config construction for
            statically-known conflicts (ODE engine, active faults), at
            :meth:`Simulation.run` for population-dependent ones.
        faults: Optional disruption model (:class:`repro.faults.FaultSpec`):
            node churn with reboot state loss, lossy links, and per-bundle
            transfer failure. ``None`` (or a trivial, all-defaults spec)
            keeps the perfectly-reliable world and costs nothing — the run
            is byte-identical to one without fault support.
    """

    buffer_capacity: int | tuple[int, ...] = 10
    bundle_tx_time: float | tuple[float, ...] = 100.0
    drop_policy: str = "reject"
    record_occupancy: bool = False
    engine: str = "des"
    kernel: str = "auto"
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        # Type checks first, so a NaN, a bool or a string fails with the
        # field's name instead of coercing into a plausible run.
        per_node = isinstance(self.buffer_capacity, (list, tuple))
        caps = tuple(self.buffer_capacity) if per_node else (self.buffer_capacity,)
        if not caps:
            raise ValueError("per-node buffer_capacity must be non-empty")
        for c in caps:
            require_int("buffer_capacity", c, 1)
        if per_node:
            object.__setattr__(self, "buffer_capacity", tuple(int(c) for c in caps))
        per_node = isinstance(self.bundle_tx_time, (list, tuple))
        times = tuple(self.bundle_tx_time) if per_node else (self.bundle_tx_time,)
        if not times:
            raise ValueError("per-node bundle_tx_time must be non-empty")
        for t in times:
            if (
                isinstance(t, bool)
                or not isinstance(t, numbers.Real)
                or not 0 < t < math.inf
            ):
                raise ValueError(f"bundle_tx_time must be finite and positive, got {t!r}")
        if per_node:
            object.__setattr__(self, "bundle_tx_time", tuple(float(t) for t in times))
        require_bool("record_occupancy", self.record_occupancy)
        from repro.core.policies import drop_policy_names

        if self.drop_policy not in drop_policy_names():
            raise ValueError(
                f"unknown drop policy {self.drop_policy!r}; "
                f"available: {', '.join(drop_policy_names())}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; available: {', '.join(ENGINES)}"
            )
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; available: {', '.join(KERNELS)}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ValueError(
                f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
            )
        if self.kernel == "soa":
            if self.engine != "des":
                raise ValueError(
                    "kernel='soa' selects a DES execution tier; it cannot be "
                    f"combined with engine={self.engine!r} — use kernel='auto' "
                    "or engine='des'"
                )
            if self.active_faults is not None:
                raise ValueError(
                    "kernel='soa' cannot run under fault injection: the sweep "
                    "kernel has no crash/recovery or link-severance machinery "
                    "— run faulted cells with kernel='auto' or 'event', or "
                    "clear the fault spec"
                )

    @property
    def active_faults(self) -> FaultSpec | None:
        """The fault spec when it actually injects something, else None.

        A trivial (all-defaults) spec is indistinguishable from no spec:
        callers gate the entire disruption machinery on this so fault
        support costs nothing when faults are off.
        """
        if self.faults is None or self.faults.is_trivial:
            return None
        return self.faults

    # ----------------------------------------------------- per-node accessors

    def validate_population(self, num_nodes: int) -> None:
        """Check per-node sequences match the population size.

        Raises:
            ValueError: if a per-node sequence has the wrong length.
        """
        for label, value in (
            ("buffer_capacity", self.buffer_capacity),
            ("bundle_tx_time", self.bundle_tx_time),
        ):
            if isinstance(value, tuple) and len(value) != num_nodes:
                raise ValueError(
                    f"per-node {label} has {len(value)} entries "
                    f"for a {num_nodes}-node population"
                )

    def capacity_for(self, node_id: int) -> int:
        """Relay buffer slots of ``node_id``."""
        if isinstance(self.buffer_capacity, tuple):
            return self.buffer_capacity[node_id]
        return self.buffer_capacity

    def capacities(self, num_nodes: int) -> tuple[int, ...]:
        """Per-node relay capacities for a ``num_nodes`` population."""
        if isinstance(self.buffer_capacity, tuple):
            return self.buffer_capacity
        return (self.buffer_capacity,) * num_nodes

    def tx_time_for(self, node_id: int) -> float:
        """Seconds ``node_id``'s radio needs to transmit one bundle."""
        if isinstance(self.bundle_tx_time, tuple):
            return self.bundle_tx_time[node_id]
        return self.bundle_tx_time

    def pair_tx_time(self, a: int, b: int) -> float:
        """Per-bundle transfer time of the (a, b) link: the slower radio."""
        return max(self.tx_time_for(a), self.tx_time_for(b))


class Simulation:
    """A single, deterministic simulation run."""

    #: the class each contact session plans its transfers with — a test
    #: seam: the differential oracle in the test suite subclasses
    #: Simulation and swaps in its reference planner here
    _planner_class = IncrementalPlanner

    def __init__(
        self,
        trace: ContactTrace,
        protocol_config: ProtocolConfig,
        flows: list[Flow],
        *,
        config: SimulationConfig | None = None,
        seed: int = 0,
        fault_seed: int | None = None,
    ) -> None:
        if not flows:
            raise ValueError("at least one flow is required")
        for f in flows:
            if not (0 <= f.source < trace.num_nodes and 0 <= f.destination < trace.num_nodes):
                raise ValueError(f"flow {f} references nodes outside the trace population")
        self.trace = trace
        self.protocol_config = protocol_config
        self.flows = flows
        self.config = config or SimulationConfig()
        self.config.validate_population(trace.num_nodes)
        self.seed = seed
        self.engine = Engine()
        #: copy-population observer installed by the SoA sweep kernel for
        #: the duration of a kernel run (``copy_added``/``copy_removed``/
        #: ``delivered`` hooks); None on the event path, costing one
        #: is-None test per state change
        self._state_observer = None
        #: :meth:`link_tx_time` fast path: the constant per-link transfer
        #: time when the population is homogeneous, else None
        self._uniform_tx_time = (
            None
            if isinstance(self.config.bundle_tx_time, tuple)
            else float(self.config.bundle_tx_time)
        )
        self.metrics = MetricsCollector(
            trace.num_nodes,
            self.config.capacities(trace.num_nodes),
            record_occupancy=self.config.record_occupancy,
        )
        #: per-pair ``(epoch_a, epoch_b)`` memo of the knowledge layer —
        #: the epochs at the end of each pair's last control swap (see
        #: :func:`repro.core.knowledge.exchange_control`)
        self.pair_knowledge: dict[tuple[int, int], tuple[int, int]] = {}
        #: True while encounter bookkeeping is deferred to the end-of-run
        #: batched flush (unfaulted encounter-inert populations, and every
        #: SoA kernel run)
        self._defer_history = False
        #: degenerate encounters processed without their own event (the
        #: deferred flush); ``engine.events_fired + batched_encounters``
        #: equals the event count of a one-event-per-contact schedule
        self.batched_encounters = 0
        #: per-contact "the link carries zero bundles" flags, set by run()
        self._zero_transfer: list[bool] = []
        hub = RngHub(seed)
        self.nodes: list[Node] = []
        for i in range(trace.num_nodes):
            # Lazy streams: the generators (and their SeedSequence math)
            # are only built if the policy/protocol actually draws, and a
            # materialised stream is identical to the eager one.
            node = Node(
                i,
                self.config.capacity_for(i),
                drop_policy=make_drop_policy(
                    self.config.drop_policy, rng=hub.lazy_stream("drop-policy", i)
                ),
            )
            node.protocol = protocol_config.build(
                node, self, hub.lazy_stream("protocol", i)
            )
            self.nodes.append(node)
        self._offered = total_offered(flows)
        self._delivered_total = 0
        self._ran = False
        # ---------------------------------------------------- disruption model
        #: the active fault spec, or None for the perfectly-reliable world
        #: (a trivial spec deactivates the machinery entirely)
        self.faults = self.config.active_faults
        if self.faults is not None:
            #: fault randomness is decoupled from the run seed so sweep
            #: layers can hold the fault environment fixed (common random
            #: numbers) while the protocol/run seed varies
            self._fault_hub = RngHub(seed if fault_seed is None else fault_seed)
            self._node_down = [False] * trace.num_nodes
            #: lifetime crash count per node — sessions capture the pair's
            #: epochs at contact start and tear down on any change
            self._crash_count = [0] * trace.num_nodes
            #: per-node ids the node knew were delivered before a knowledge
            #: wipe — re-accepting one of these counts as a re-infection
            self._wiped_known: dict[int, set[BundleId]] = {}
            self._transfer_fault_rng = (
                self._fault_hub.stream("transfer-failure")
                if self.faults.transfer_failure_prob > 0.0
                else None
            )
            self._contact_dropped = None
            self._contact_severed_at = None

    # ---------------------------------------------------------------- services
    # (the SimulationServices surface protocols and sessions rely on)

    @property
    def now(self) -> float:
        return self.engine.now

    def link_tx_time(self, a: int, b: int) -> float:
        """Per-bundle transfer time of the (a, b) link (cached fast path)."""
        uniform = self._uniform_tx_time
        if uniform is not None:
            return uniform
        return self.config.pair_tx_time(a, b)

    def remove_copy(self, node: Node, bid: BundleId, reason: str) -> None:
        """Remove a live copy with full metric/counter bookkeeping."""
        was_relay = bid in node.relay
        sb = node.remove_copy(bid)
        observer = self._state_observer
        if observer is not None:
            observer.copy_removed(node, sb)
        self._cancel_expiry(sb)
        if was_relay:
            self.metrics.on_buffer_delta(-1, self.now)
        self.metrics.on_copy_delta(bid, -1, self.now)
        self.metrics.on_removal(reason)
        if reason == "expired":
            node.counters.expiries += 1
        elif reason == "immunized":
            node.counters.immunized_purges += 1

    def evict_copy(self, node: Node, bid: BundleId, policy: str) -> None:
        """Evict a relay copy under buffer pressure, attributed to ``policy``.

        ``policy`` is the drop-policy name charged in the per-policy drop
        counters — the node's configured policy for the base protocol path,
        ``"max-ec"`` for the EC protocols' intrinsic rule.
        """
        node.counters.evictions += 1
        self.metrics.on_policy_drop(policy)
        self.remove_copy(node, bid, reason="evicted")

    def set_expiry(self, node: Node, sb: StoredBundle, expiry: float) -> None:
        """(Re)arm a copy's TTL expiry event."""
        self._cancel_expiry(sb)
        sb.expiry = expiry
        if math.isinf(expiry):
            return
        if expiry <= self.now:
            # Zero/negative TTL: the copy dies right away, but via an event
            # so ordering with the current action stays well-defined.
            expiry = self.now
        sb.expiry_event = self.engine.at(expiry, self._on_expiry, node, sb)

    def count_control_units(self, node: Node, kind: str, units: int) -> None:
        self.metrics.on_control_units(kind, units)
        node.counters.control_units_sent += units

    def set_control_storage(self, node: Node, slots: float) -> None:
        """Set a node's stored-table footprint (fractional buffer slots)."""
        if slots < 0:
            raise ValueError("control storage cannot be negative")
        delta = slots - node.control_storage
        if delta:
            node.control_storage = slots
            self.metrics.on_control_storage_delta(delta, self.now)

    def deliver(
        self, receiver: Node, bundle: Bundle, now: float, via: int | None = None
    ) -> None:
        """Final delivery at the destination (``via`` = handing-over node)."""
        receiver.mark_delivered(bundle.bid, now)
        observer = self._state_observer
        if observer is not None:
            observer.delivered(receiver, bundle.bid)
        receiver.counters.bundles_delivered += 1
        self.metrics.on_delivered(bundle.bid, now, via=via)
        self.metrics.on_copy_delta(bundle.bid, +1, now)
        self._delivered_total += 1
        receiver.protocol.on_delivered(bundle, now)
        if self._delivered_total >= self._offered:
            # Success: stop after the current event completes. Halting here
            # replaces a stop-predicate evaluated before every event — the
            # run ends at the same event boundary either way.
            self.engine.halt()

    def store_received_copy(
        self,
        receiver: Node,
        bundle: Bundle,
        ec: int,
        now: float,
        sender_copy: StoredBundle | None = None,
    ) -> StoredBundle | None:
        """Run the receiver's buffer policy; account the stored copy."""
        sb = receiver.protocol.accept(bundle, ec, now, sender_copy=sender_copy)
        if sb is None:
            return None
        receiver.counters.bundles_received += 1
        self.metrics.on_buffer_delta(+1, now)
        self.metrics.on_copy_delta(bundle.bid, +1, now)
        observer = self._state_observer
        if observer is not None:
            observer.copy_added(receiver, sb)
        if self.faults is not None and self._wiped_known:
            wiped = self._wiped_known.get(receiver.id)
            if wiped and bundle.bid in wiped:
                # The node knew this bundle was delivered before a reboot
                # wiped that knowledge — it just got re-infected.
                wiped.discard(bundle.bid)
                self.metrics.churn.reinfections += 1
        return sb

    # ---------------------------------------------------------------- internals

    def _cancel_expiry(self, sb: StoredBundle) -> None:
        if sb.expiry_event is not None:
            self.engine.cancel(sb.expiry_event)
            sb.expiry_event = None
        sb.expiry = NO_EXPIRY

    def _on_expiry(self, node: Node, sb: StoredBundle) -> None:
        # The handle is cancelled on removal/renewal, so if we fire, the
        # copy should still be live — but guard against same-instant races.
        if node.get_copy(sb.bid) is not sb:
            return
        if not sb.is_expired(self.now):
            return
        self.remove_copy(node, sb.bid, reason="expired")

    def _on_contact(self, idx: int) -> None:
        """One contact start, for every protocol, faulted or not.

        The fault gates come first: a dropped contact or a down endpoint
        means the radios never met. Then the encounter/knowledge
        bookkeeping (:func:`contact_bookkeeping`), and a
        :class:`ContactSession` — the slot state machine — only when the
        run's zero-transfer mask says the link can carry at least one
        bundle. Under faults the session also carries the pair's crash
        epochs and its pre-drawn mid-contact severance event.
        """
        contact = self.trace.contacts[idx]
        faulted = self.faults is not None
        if faulted and self._contact_lost(idx, contact):
            return
        now = contact.start
        nodes = self.nodes
        contact_bookkeeping(self, nodes[contact.a], nodes[contact.b], now)
        if self._zero_transfer[idx]:
            return
        tx_time, budget = ContactSession.link_budget(self, contact)
        session = ContactSession(self, contact, tx_time, budget)
        if faulted:
            session.crash_epoch = (
                self._crash_count[contact.a],
                self._crash_count[contact.b],
            )
            severed_at = self._contact_severed_at
            if severed_at is not None:
                t = float(severed_at[idx])
                if t < contact.end:
                    # Scheduled before the first transfer completion, so at
                    # an equal timestamp the severance wins deterministically.
                    self.engine.at(t, session._on_severed)
        session._schedule_next(now)

    def _flush_deferred_bookkeeping(self, left_out, end_time: float, arrays) -> None:
        """Batched bookkeeping for a run whose encounter history was deferred.

        Replays, in one pass, everything the per-event path would have
        done for contacts that started by ``end_time``: encounter history
        for *every* fired contact (identical mutation sequence — the trace
        is processed in the same ``(start, end, a, b)`` order the event
        queue fires it, and ``note_encounter`` depends only on the passed
        times), and the per-contact signaling accounting for the contacts
        flagged in ``left_out`` — the degenerate contacts an encounter-inert
        population never schedules (None when every contact was processed,
        as a knowledge-plane sweep does). Contacts past
        ``end_time`` are excluded exactly as the event loop would have
        left them unfired: an early-delivery halt happens in a
        transfer-completion event, which by the engine's stream rule fires
        *after* every contact of the same timestamp.
        """
        starts, _ends, a_ids, b_ids = arrays
        fired = int(np.searchsorted(starts, end_time, side="right"))
        nodes = self.nodes
        if fired:
            self._replay_encounter_history(a_ids[:fired], b_ids[:fired])
        if left_out is not None:
            zmask = left_out[:fired]
            batched = int(zmask.sum())
            if batched:
                self.batched_encounters += batched
                self.metrics.on_batched_contacts(batched)
                counts = np.bincount(a_ids[:fired][zmask], minlength=len(nodes))
                counts += np.bincount(b_ids[:fired][zmask], minlength=len(nodes))
                for node, encounters in zip(nodes, counts.tolist(), strict=True):
                    if encounters:
                        node.counters.control_units_sent += encounters
        self._defer_history = False

    def _replay_encounter_history(self, a_ids, b_ids) -> None:
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
        nodes = self.nodes
        n = len(nodes)
        offsets, ts, nid_tail, same, dts = self.trace.encounter_streams()
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

    # ----------------------------------------------------------------- faults
    # (active only when self.faults is not None; see repro.faults)

    def _transfer_failed(self) -> bool:
        """Draw the i.i.d. per-bundle transfer-failure coin."""
        rng = self._transfer_fault_rng
        return rng is not None and rng.random() < self.faults.transfer_failure_prob

    def _schedule_faults(self, horizon: float) -> None:
        """Turn the churn model into crash/recover events on the engine.

        Per node, the sampled exponential up/down process and the explicit
        ``downtime_schedule`` entries are merged into a union of down
        intervals, then scheduled as first-class events. Scheduling happens
        *before* the run, so by the engine's stream rule a crash fires
        before a contact at the same timestamp — deterministically.
        """
        spec = self.faults
        intervals: dict[int, list[list[float]]] = {}
        for node_id, down_at, up_at in spec.downtime_schedule:
            if node_id >= self.trace.num_nodes:
                raise ValueError(
                    f"downtime_schedule references node {node_id} in a "
                    f"{self.trace.num_nodes}-node population"
                )
            intervals.setdefault(node_id, []).append([down_at, up_at])
        if spec.churn_rate > 0.0:
            mean_uptime = 1.0 / spec.churn_rate
            for i in range(self.trace.num_nodes):
                rng = self._fault_hub.stream("churn", i)
                t = 0.0
                while True:
                    t += rng.exponential(mean_uptime)
                    if t >= horizon:
                        break
                    down_at = t
                    t += rng.exponential(spec.mean_downtime)
                    intervals.setdefault(i, []).append([down_at, t])
        for node_id in sorted(intervals):
            spans = sorted(intervals[node_id])
            merged = [spans[0]]
            for span in spans[1:]:
                if span[0] <= merged[-1][1]:
                    if span[1] > merged[-1][1]:
                        merged[-1][1] = span[1]
                else:
                    merged.append(span)
            for down_at, up_at in merged:
                if down_at >= horizon:
                    continue
                self.engine.at(down_at, self._on_crash, node_id)
                if up_at < horizon:
                    self.engine.at(up_at, self._on_recover, node_id)

    def _draw_link_faults(self, arrays) -> None:
        """Pre-draw per-contact link faults in trace order (one pass each).

        Drawing against the trace index — not the executed schedule —
        keeps the streams independent of protocol behaviour, so every
        protocol at the same fault seed faces the identical environment.
        """
        spec = self.faults
        n = len(self.trace.contacts)
        if spec.contact_drop_prob > 0.0:
            rng = self._fault_hub.stream("link-drop")
            self._contact_dropped = rng.random(n) < spec.contact_drop_prob
        if spec.interrupt_prob > 0.0:
            rng = self._fault_hub.stream("link-interrupt")
            flags = rng.random(n) < spec.interrupt_prob
            fracs = rng.random(n)
            starts, ends, _a, _b = arrays
            self._contact_severed_at = np.where(
                flags, starts + fracs * (ends - starts), np.inf
            )

    def _on_crash(self, node_id: int) -> None:
        if self._node_down[node_id]:
            return
        self._node_down[node_id] = True
        self._crash_count[node_id] += 1
        now = self.now
        self.metrics.on_node_down(now)
        spec = self.faults
        node = self.nodes[node_id]
        if spec.wipes_buffer:
            # All live copies (origin and relay) die at the crash instant;
            # per-copy removals at one timestamp coalesce into a single
            # occupancy-series step, so integrals stay exact. The delivered
            # log is not a buffer and survives: delivered stays delivered.
            for sb in node.sendable():
                self.remove_copy(node, sb.bid, reason="crashed")
        if spec.wipes_knowledge:
            forgotten = node.protocol.on_knowledge_wiped(now)
            if forgotten:
                self._wiped_known.setdefault(node_id, set()).update(forgotten)

    def _on_recover(self, node_id: int) -> None:
        if not self._node_down[node_id]:
            return
        self._node_down[node_id] = False
        self.metrics.on_node_up(self.now)

    def _contact_lost(self, idx: int, contact) -> bool:
        """The disruption model's contact-start gates.

        The drop coin erases the contact outright; a down endpoint misses
        it (no bookkeeping — the radios never met).
        """
        dropped = self._contact_dropped
        if dropped is not None and dropped[idx]:
            self.metrics.churn.dropped_contacts += 1
            return True
        if self._node_down[contact.a] or self._node_down[contact.b]:
            self.metrics.churn.missed_contacts += 1
            return True
        return False

    def _inject_flow(self, flow: Flow) -> None:
        now = self.engine.now
        source = self.nodes[flow.source]
        for seq in range(1, flow.num_bundles + 1):
            bundle = Bundle(
                bid=BundleId(flow=flow.flow_id, seq=seq),
                source=flow.source,
                destination=flow.destination,
                created_at=now,
            )
            sb = source.add_origin(bundle, now)
            self.metrics.on_bundle_born(bundle.bid, now)
            source.protocol.on_bundle_created(sb, now)
            observer = self._state_observer
            if observer is not None:
                observer.copy_added(source, sb)

    def _all_delivered(self) -> bool:
        return self._delivered_total >= self._offered

    # ------------------------------------------------------------------- run

    def run(self) -> RunResult:
        """Execute the run and return its :class:`RunResult`.

        A simulation object is single-use; running twice raises.
        """
        if self._ran:
            raise RuntimeError("Simulation objects are single-use; build a new one")
        self._ran = True
        if self.trace.horizon is None:
            raise ValueError(
                "trace has no horizon; ContactTrace normally derives one from "
                "the last contact end — pass horizon= explicitly for this trace"
            )
        horizon = self.trace.horizon
        for flow in self.flows:
            if flow.created_at > horizon:
                raise ValueError(
                    f"flow {flow.flow_id} is created at t={flow.created_at}, "
                    f"after the trace horizon t={horizon}: its bundles would "
                    "never be offered yet still count against the delivery "
                    "ratio — extend the trace or move the flow earlier"
                )
        if self.config.kernel != "event":
            from repro.core.sweepkernel import SweepKernel, kernel_unsupported_reason

            reason = kernel_unsupported_reason(self)
            if reason is None:
                # The SoA tier owns the whole run (including flow
                # injection — seq ordering must be established under its
                # calendar) and produces a byte-identical RunResult.
                return SweepKernel(self).run(horizon)
            if self.config.kernel == "soa":
                raise ValueError(
                    f"kernel='soa' cannot execute this run: {reason}; use "
                    "kernel='auto' (event fallback) or kernel='event'"
                )
        for flow in self.flows:
            if flow.created_at == 0.0:
                self._inject_flow(flow)
            else:
                self.engine.at(flow.created_at, self._inject_flow, flow)
        # One columnar materialization per run, shared by the zero-transfer
        # classification, the link-fault draw, the contact stream and the
        # deferred flush. Degenerate encounters — contacts whose duration
        # admits zero transfers, the majority in dense traces — are
        # classified in one vectorized pass: the contact handler skips the
        # session machinery for them.
        arrays = self.trace.contact_arrays()
        zero_mask = zero_transfer_mask(self.trace, self.config.bundle_tx_time, arrays=arrays)
        self._zero_transfer = zero_mask.tolist()
        if self.faults is not None:
            # Crash/recover events are pushed before the run, so a crash at
            # a contact's start fires before the contact (the stream rule
            # in repro.des.engine); link faults are pre-drawn per contact.
            self._schedule_faults(horizon)
            self._draw_link_faults(arrays)
        elif all(node.protocol.encounter_inert for node in self.nodes):
            # Encounter-inert population: history and the degenerate
            # contacts' accounting settle in one batched flush after the
            # run, so only the contacts that can carry a bundle stream in.
            # The flush cannot see downtime, hence unfaulted runs only.
            self._defer_history = True
        # The trace is time-sorted (ContactTrace sorts on construction), so
        # its contact starts stream through the engine without a heap push
        # each; sessions are built when their contact begins, so a run that
        # delivers early never pays for the contacts behind the stop point.
        starts = arrays[0]
        ids = None
        if self._defer_history:
            live = np.flatnonzero(~zero_mask)
            starts = starts[live]
            ids = live.tolist()
        self.engine.run(horizon, starts.tolist(), self._on_contact, ids)
        if self._defer_history:
            self._flush_deferred_bookkeeping(zero_mask, self.engine.now, arrays)
        return self._build_result()

    def _build_result(self) -> RunResult:
        end_time = self.engine.now
        success = self._all_delivered()
        delay = self.metrics.completion_time(self._offered) if success else None
        flow0 = self.flows[0]
        removals = {
            "evicted": self.metrics.removals.evicted,
            "expired": self.metrics.removals.expired,
            "immunized": self.metrics.removals.immunized,
            "ec_aged_out": self.metrics.removals.ec_aged_out,
        }
        churn: dict[str, float] = {}
        if self.faults is not None:
            # Faulted runs (only) carry the churn block and the crashed
            # removal reason — unfaulted results stay byte-identical to
            # the pre-fault-support format.
            removals["crashed"] = self.metrics.removals.crashed
            c = self.metrics.churn
            churn = {
                "crashes": c.crashes,
                "recoveries": c.recoveries,
                "missed_contacts": c.missed_contacts,
                "dropped_contacts": c.dropped_contacts,
                "interrupted_transfers": c.interrupted_transfers,
                "failed_transfers": c.failed_transfers,
                "reinfections": c.reinfections,
                "downtime": self.metrics.downtime(end_time),
                "mean_nodes_down": self.metrics.mean_nodes_down(end_time),
            }
        return RunResult(
            protocol=self.protocol_config.protocol_name,
            protocol_label=self.protocol_config.label,
            trace_name=self.trace.name,
            load=self._offered,
            seed=self.seed,
            source=flow0.source,
            destination=flow0.destination,
            delivered=self._delivered_total,
            delivery_ratio=self.metrics.delivery_ratio(self._offered),
            delay=delay,
            success=success,
            buffer_occupancy=self.metrics.mean_buffer_occupancy(end_time),
            peak_occupancy=self.metrics.peak_occupancy,
            duplication_rate=self.metrics.mean_duplication_rate(end_time),
            signaling={
                "anti_packet": self.metrics.signaling.anti_packet,
                "immunity_table": self.metrics.signaling.immunity_table,
                "summary_vector": self.metrics.signaling.summary_vector,
            },
            transmissions=self.metrics.bundle_transmissions,
            wasted_slots=self.metrics.wasted_slots,
            removals=removals,
            churn=churn,
            drops=dict(self.metrics.drops),
            end_time=end_time,
            occupancy_series=(
                tuple(self.metrics.occupancy_series)
                if self.metrics.record_occupancy
                else None
            ),
        )
