"""The simulation driver: one run = one protocol × one trace × one workload.

Wiring: :meth:`Simulation.run` hands the run to the contact sweep
(:mod:`repro.core.sweepkernel`), which merges the trace's time-sorted
contacts with the DES engine's event calendar (:mod:`repro.des.engine`);
each contact that can carry a bundle opens a session which schedules
per-bundle transfer completions. TTL expiries are first-class events so
occupancy and duplication integrals change at the *right* instant even
when a node sits idle. The run ends when every offered bundle is delivered
(success — the delay metric is that instant) or when the trace horizon is
reached first (failure — the paper records no delay, but delivery ratio,
occupancy and duplication still count). This class holds the run's state
and the services protocols and the sweep call.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.core import sweepkernel
from repro.core.bundle import NO_EXPIRY, Bundle, BundleId, StoredBundle
from repro.core.metrics import MetricsCollector
from repro.core.node import Node
from repro.core.policies import make_drop_policy
from repro.core.protocols.registry import ProtocolConfig
from repro.core.results import RunResult
from repro.core.workload import Flow, total_offered
from repro.des.engine import Engine
from repro.des.rng import RngHub
from repro.faults import FaultSpec
from repro.mobility.contact import ContactTrace
from repro.validation import require_bool, require_int

#: Sweep-cell execution engines: the event simulator and the mean-field
#: surrogate (:mod:`repro.analytic.surrogate`).
ENGINES: tuple[str, ...] = ("des", "ode")

#: DES execution kernels: the contact sweep's paths
#: (:mod:`repro.core.sweepkernel`). ``event`` sweeps every contact through
#: the protocol hooks, ``soa`` takes the skip path, and ``auto`` takes the
#: skip path when the run is eligible and sweeps every contact otherwise.
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
        kernel: Which path of the contact sweep
            (:mod:`repro.core.sweepkernel`) carries the run: ``"event"``
            (every contact through the protocol hooks, always available),
            ``"soa"`` (the skip path, which retires futile contacts in
            bulk — populations of an encounter-inert protocol or of a
            stock knowledge-store one: anti-packet P-Q, immunity,
            cumulative immunity; faulted or not; byte-identical results),
            or ``"auto"`` (default: the skip path when eligible, every
            contact otherwise). ``"soa"`` fails fast — at config
            construction under the ODE engine, at :meth:`Simulation.run`
            for population-dependent conflicts (dynamic TTL, PRoPHET,
            mixed or custom protocols).
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
        if self.kernel == "soa" and self.engine != "des":
            raise ValueError(
                "kernel='soa' selects a DES execution tier; it cannot be "
                f"combined with engine={self.engine!r} — use kernel='auto' "
                "or engine='des'"
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


def churn_intervals(
    rngs: list[np.random.Generator],
    mean_uptime: float,
    mean_downtime: float,
    horizon: float,
) -> list[tuple[int, float, float]]:
    """Every node's sampled outages that start before ``horizon``.

    Node ``i``'s process draws from ``rngs[i]``: exponential up-times and
    down-times alternate from ``t = 0`` until an up-time reaches the
    horizon. Returns ``(node, down_at, up_at)`` in node, then time order.

    The draws come in batches, one row per node: ``standard_exponential(k)``
    times the alternating scales gives the scalar ``rng.exponential(scale)``
    stream bit for bit, and ``np.add.accumulate`` along a row seeded with
    the node's running time adds one draw at a time, in the scalar loop's
    order (never a chunk's sum). A batch may draw past a node's stopping
    point; its churn stream has no other reader.
    """
    # about one batch for the expected cycle count, a bounded one at most
    pairs = min(int(horizon / (mean_uptime + mean_downtime)) + 4, 4096)
    scales = np.tile((mean_uptime, mean_downtime), pairs)
    rows = np.arange(len(rngs))
    clock = np.zeros((len(rngs), 1))
    found = []
    while len(rows):
        gaps = np.stack([rngs[i].standard_exponential(2 * pairs) for i in rows.tolist()])
        gaps *= scales
        times = np.add.accumulate(np.concatenate((clock, gaps), axis=1), axis=1)
        downs = times[:, 1::2]
        # a row's down times ascend, so the ones before the horizon lead it
        before = downs < horizon
        found.append(
            (np.broadcast_to(rows[:, None], before.shape)[before], downs[before],
             times[:, 2::2][before])
        )
        # a row whose every up-time fell short draws another batch
        more = before[:, -1]
        rows = rows[more]
        clock = times[more, -1:]
    nodes, downs, ups = (np.concatenate(cols) for cols in zip(*found))
    order = np.argsort(nodes, kind="stable")
    return list(zip(nodes[order].tolist(), downs[order].tolist(), ups[order].tolist()))


@functools.lru_cache(maxsize=256)
def outage_schedule(
    fault_seed: int,
    churn_rate: float,
    mean_downtime: float,
    downtime_schedule: tuple[tuple[int, float, float], ...],
    num_nodes: int,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The outages one fault environment schedules before ``horizon``.

    Per node, the sampled exponential up/down process
    (:func:`churn_intervals`, node ``i`` on the fault seed's ``("churn",
    i)`` stream) and the explicit ``downtime_schedule`` entries are merged
    into a union of down intervals, touching ones included. Returns the
    read-only ``(nodes, down_at, up_at)`` columns of the ones that start
    before the horizon, ``up_at`` inf when the recovery would not fire
    before it; None when there are none.

    Memoised: the schedule is a pure function of these arguments, and
    every protocol and state-loss mode at the same grid coordinates (one
    fault seed) faces the same one, so a process draws it once.
    """
    intervals: dict[int, list[list[float]]] = {}
    for node_id, down_at, up_at in downtime_schedule:
        if node_id >= num_nodes:
            raise ValueError(
                f"downtime_schedule references node {node_id} in a "
                f"{num_nodes}-node population"
            )
        intervals.setdefault(node_id, []).append([down_at, up_at])
    if churn_rate > 0.0:
        hub = RngHub(fault_seed)
        rngs = [hub.stream("churn", i) for i in range(num_nodes)]
        for node_id, down_at, up_at in churn_intervals(
            rngs, 1.0 / churn_rate, mean_downtime, horizon
        ):
            intervals.setdefault(node_id, []).append([down_at, up_at])
    nodes: list[int] = []
    downs: list[float] = []
    ups: list[float] = []
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
            if down_at < horizon:
                nodes.append(node_id)
                downs.append(down_at)
                # a recovery at or past the horizon never fires
                ups.append(up_at if up_at < horizon else math.inf)
    if not nodes:
        return None
    columns = (np.array(nodes), np.array(downs), np.array(ups))
    for column in columns:
        column.flags.writeable = False
    return columns


class Simulation:
    """A single, deterministic simulation run."""

    #: the contact sweep that executes the run — a test seam: the
    #: differential ladder in the test suite subclasses Simulation and
    #: swaps in a sweep that logs its transfer picks here
    _kernel_class = sweepkernel.SweepKernel

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
        #: copy-population observer installed by the contact sweep for
        #: the duration of its run (``copy_added``/``copy_removed``/
        #: ``copies_removed``/``delivered``/``knowledge_wiped`` hooks);
        #: None outside it
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
        #: zero-transfer contacts a skip-path run left out of its sweep
        #: and settled in its end-of-run flush (always 0 on the sweep-all
        #: path, which fires every contact);
        #: ``engine.events_fired + batched_encounters`` equals the event
        #: count of a one-event-per-contact schedule
        self.batched_encounters = 0
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
            #: what a crash wipes, looked up once per run
            self._wipes_buffer = self.faults.wipes_buffer
            self._wipes_knowledge = self.faults.wipes_knowledge
            #: per trace contact, dropped and severed when (None without
            #: that fault)
            self._contact_dropped: np.ndarray | None = None
            self._contact_severed_at: np.ndarray | None = None

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

    def remove_copies(self, node: Node, bids: list[BundleId], reason: str) -> None:
        """Remove several live copies of ``node`` at the current instant.

        The bulk-removal frame: :meth:`remove_copy`'s chain for every copy
        in one pass. It pops the copies and cancels their expiries, hands
        them to the sweep's observer at once (mask bits and candidate
        entries), updates each bundle's copy track, then applies the
        occupancy delta and the removal counters once. Exact, because
        every delta lands at one instant: the occupancy is a sum of whole
        slots and only falls here, so its integral, peak and series end
        where the per-copy deltas would leave them.
        """
        if not bids:
            return
        origin = node.origin
        relay = node.relay
        removed = []
        relay_copies = 0
        for bid in bids:
            sb = origin.pop(bid, None)
            if sb is None:
                sb = relay.remove(bid)
                relay_copies += 1
            self._cancel_expiry(sb)
            removed.append(sb)
        observer = self._state_observer
        if observer is not None:
            observer.copies_removed(node, removed)
        self.metrics.on_copies_removed(bids, relay_copies, reason, self.engine.now)
        if reason == "expired":
            node.counters.expiries += len(bids)
        elif reason == "immunized":
            node.counters.immunized_purges += len(bids)

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

    def deliver(self, receiver: Node, bundle: Bundle, now: float) -> None:
        """Final delivery at the destination."""
        receiver.mark_delivered(bundle.bid, now)
        observer = self._state_observer
        if observer is not None:
            observer.delivered(receiver, bundle.bid)
        receiver.counters.bundles_delivered += 1
        self.metrics.on_delivered(bundle.bid, now)
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

    # ----------------------------------------------------------------- faults
    # (active only when self.faults is not None; see repro.faults)

    def _transfer_failed(self) -> bool:
        """Draw the i.i.d. per-bundle transfer-failure coin."""
        rng = self._transfer_fault_rng
        return rng is not None and rng.random() < self.faults.transfer_failure_prob

    def _prepare_faults(self, horizon: float, arrays) -> np.ndarray:
        """Fix the run's fault environment before its first contact.

        Pushes the crashes and recoveries, draws the link faults, and
        returns the lost-contact mask (:meth:`_lost_contacts`). The sweep
        calls this after the flows are scheduled; it runs no lost contact,
        and counts them with :meth:`_settle_lost`.
        """
        spans = self._schedule_faults(horizon)
        self._draw_link_faults(arrays)
        return self._lost_contacts(arrays, spans)

    def _schedule_faults(
        self, horizon: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Turn the churn model into crash/recover events on the engine.

        The outages (:func:`outage_schedule`) are scheduled as first-class
        events and returned as ``(nodes, down_at, up_at)`` columns (None
        when there are none). Scheduling happens *before* the sweep, so by
        its stream rule (:mod:`repro.core.sweepkernel`) a crash or a
        recovery fires before a contact at the same timestamp —
        deterministically.
        """
        spec = self.faults
        spans = outage_schedule(
            self._fault_hub.master_seed,
            spec.churn_rate,
            spec.mean_downtime,
            spec.downtime_schedule,
            self.trace.num_nodes,
            horizon,
        )
        if spans is None:
            return None
        nodes, downs, ups = spans
        # Engine.at per crash and recovery, in bulk: entries take
        # consecutive seqs in scheduling order, and (time, seq) keys are
        # unique, so the rebuilt heap pops them exactly as pushed ones
        engine = self.engine
        seq = engine.seq
        entries = []
        on_crash, on_recover = self._on_crash, self._on_recover
        for node_id, down_at, up_at in zip(nodes.tolist(), downs.tolist(), ups.tolist()):
            entries.append([down_at, seq, on_crash, (node_id,), True])
            seq += 1
            if up_at != math.inf:
                entries.append([up_at, seq, on_recover, (node_id,), True])
                seq += 1
        engine.seq = seq
        engine.heap.extend(entries)
        heapq.heapify(engine.heap)
        return spans

    def _draw_link_faults(self, arrays) -> None:
        """Pre-draw per-contact link faults in trace order (one pass each).

        Drawing against the trace index — not the executed schedule —
        keeps the streams independent of protocol behaviour, so every
        protocol at the same fault seed faces the identical environment.
        """
        spec = self.faults
        n = len(arrays[0])
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

    # A node's merged outages are disjoint, so its crashes and recoveries
    # alternate: a crash finds the node up and a recovery finds it down.

    def _on_crash(self, node_id: int) -> None:
        self._crash_count[node_id] += 1
        now = self.engine.now
        self.metrics.on_crash(now)
        node = self.nodes[node_id]
        if self._wipes_buffer:
            # All live copies (origin and relay) die at the crash instant,
            # in one bulk removal: one occupancy-series step, so integrals
            # stay exact. The delivered log is not a buffer and survives:
            # delivered stays delivered.
            self.remove_copies(node, [sb.bid for sb in node.sendable()], "crashed")
        if self._wipes_knowledge:
            forgotten = node.protocol.on_knowledge_wiped(now)
            if forgotten:
                self._wiped_known.setdefault(node_id, set()).update(forgotten)
            observer = self._state_observer
            if observer is not None:
                observer.knowledge_wiped(node)

    def _on_recover(self, node_id: int) -> None:
        self.metrics.on_recovery(self.now)

    def _lost_contacts(self, arrays, spans) -> np.ndarray:
        """Per trace contact: dropped, or an endpoint down at its start.

        The radios never meet at a lost contact: no bookkeeping, no
        session. The drop coins are pre-drawn per contact, and every crash
        and recovery in ``spans`` (:meth:`_schedule_faults`) is pushed
        before the run, so it fires before a contact at its instant: a
        node is down at ``t`` iff one of its spans has
        ``down_at <= t < up_at``.
        """
        starts, _ends, a_ids, b_ids = arrays
        dropped = self._contact_dropped
        lost = np.zeros(len(starts), dtype=np.bool_) if dropped is None else dropped.copy()
        if spans is None:
            return lost
        span_nodes, downs, ups = spans
        # exact ranks of every instant, so (node, time) compares as one key
        _, rank = np.unique(np.concatenate((downs, ups, starts)), return_inverse=True)
        width = len(rank) + 1
        k = len(downs)
        down_keys = span_nodes * width + rank[:k]
        up_keys = span_nodes * width + rank[k : 2 * k]
        start_rank = rank[2 * k :]
        # one (endpoint, start) key per contact end, a's then b's
        keys = np.concatenate((a_ids, b_ids)) * width + np.tile(start_rank, 2)
        # the endpoint's last span down by the start: a span of a lower
        # node has an up key below every key of this node
        last = np.searchsorted(down_keys, keys, side="right") - 1
        down = (last >= 0) & (keys < up_keys[last])
        n = len(starts)
        lost |= down[:n] | down[n:]
        return lost

    def _settle_lost(self, lost: np.ndarray, starts: np.ndarray, end_time: float) -> None:
        """Count the ``lost`` contacts that started by ``end_time``: each is
        an event that fired, dropped when its coin says so, else missed.

        A run halts in a transfer completion, which fires after every
        contact of its instant, so exactly those contacts started.
        """
        fired = int(np.searchsorted(starts, end_time, side="right"))
        n_lost = int(lost[:fired].sum())
        if not n_lost:
            return
        dropped = self._contact_dropped
        n_dropped = 0 if dropped is None else int(dropped[:fired].sum())
        churn = self.metrics.churn
        churn.dropped_contacts += n_dropped
        churn.missed_contacts += n_lost - n_dropped
        self.engine.events_fired += n_lost

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
        sweep_all = self.config.kernel == "event"
        if not sweep_all:
            reason = sweepkernel.kernel_unsupported_reason(self)
            if reason is not None and self.config.kernel == "soa":
                raise ValueError(
                    f"kernel='soa' cannot execute this run: {reason}; use "
                    "kernel='auto' or kernel='event' (the sweep-all path)"
                )
            sweep_all = reason is not None
        # The sweep owns the whole run, flow injection included: seq
        # ordering must be established under its calendar.
        return self._kernel_class(self, sweep_all).run(horizon)

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
