"""Exact, event-driven metric collection (paper Section IV metrics).

All time-averaged quantities are computed by integrating value·dt at every
state change instead of periodic sampling — exact, and cheaper than sampling
at the paper's time scales (10⁵–10⁶ s horizons).

Metrics recorded per run:

* **Buffer occupancy level** — time-average over the run of the mean relay
  buffer fill fraction across all nodes. Stored immunity tables /
  anti-packets contribute fractional slots (they share the same storage in
  the paper's model — its Fig 11 attributes immunity's occupancy swings to
  the tables stored at each node, and the cumulative enhancement's ≥15%
  occupancy saving is exactly the removal of per-bundle table storage).
* **Bundle duplication rate** — per bundle, the time-average of
  (nodes holding a copy) / (total nodes) over the bundle's *alive window*
  (creation until its delivery, or until the run ends for undelivered
  bundles), averaged across bundles. A "copy" is an origin copy, a relay
  copy, or the destination's delivered copy. Measuring over the alive
  window captures what the paper's duplication analysis is about — how
  widely a protocol spreads a bundle while spreading still helps — and
  reproduces its orderings (immunity highest, EC/TTL lowest); integrating
  past delivery would instead reward protocols that *fail to purge* dead
  copies.
* **Delivery ratio** — delivered bundles / offered bundles.
* **Delay** — time at which the *last* bundle arrived (successful runs
  only; the paper records no delay for failed runs).
* **Signaling overhead** — control units transmitted, split by kind
  (anti-packets, immunity tables, summary vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.bundle import BundleId


class TimeWeightedAccumulator:
    """Integrates a piecewise-constant value over time."""

    __slots__ = ("_value", "_since", "_integral", "_start")

    def __init__(self, value: float = 0.0, start: float = 0.0) -> None:
        self._value = value
        self._since = start
        self._integral = 0.0
        self._start = start

    @property
    def value(self) -> float:
        """Current (instantaneous) value."""
        return self._value

    def update(self, value: float, now: float) -> None:
        """Set a new value effective at ``now``."""
        if now < self._since:
            raise ValueError(f"time went backwards: {self._since} -> {now}")
        self._integral += self._value * (now - self._since)
        self._value = value
        self._since = now

    def add(self, delta: float, now: float) -> None:
        """Adjust the current value by ``delta`` at ``now``."""
        self.update(self._value + delta, now)

    def integral(self, now: float) -> float:
        """∫ value dt from start to ``now`` (does not mutate state)."""
        if now < self._since:
            raise ValueError(f"time went backwards: {self._since} -> {now}")
        return self._integral + self._value * (now - self._since)

    def mean(self, now: float) -> float:
        """Time-average over the accumulator's lifetime [start, now].

        The window always begins at the ``start`` the accumulator was
        constructed with: the integral only covers that span, so dividing
        by any other origin would silently dilute (or inflate) the mean.
        An earlier revision accepted an arbitrary ``start`` argument here
        and did exactly that.
        """
        span = now - self._start
        if span <= 0:
            return self._value
        return self.integral(now) / span


@dataclass
class SignalingCounters:
    """Control-plane transmission counts by kind."""

    anti_packet: int = 0
    immunity_table: int = 0
    summary_vector: int = 0

    def add(self, kind: str, units: int) -> None:
        # summary vectors are counted twice per contact for every protocol
        # — test the common kind first
        if kind == "summary_vector":
            self.summary_vector += units
        elif kind == "anti_packet":
            self.anti_packet += units
        elif kind == "immunity_table":
            self.immunity_table += units
        else:
            raise ValueError(f"unknown signaling kind {kind!r}")


@dataclass
class RemovalCounters:
    """Why copies left buffers (diagnostics for the per-protocol analysis)."""

    evicted: int = 0
    expired: int = 0
    immunized: int = 0
    ec_aged_out: int = 0
    crashed: int = 0
    other: int = 0

    def add(self, reason: str, count: int = 1) -> None:
        counts = self.__dict__
        key = reason.replace("-", "_")
        if key in counts:
            counts[key] += count
        else:
            self.other += count


@dataclass
class ChurnCounters:
    """Disruption-model event counts (see :mod:`repro.faults`).

    All zero on unfaulted runs; the fields quantify how much of the
    contact schedule the fault environment destroyed.
    """

    #: node crash events (up → down transitions)
    crashes: int = 0
    #: node recovery events (down → up transitions)
    recoveries: int = 0
    #: contacts skipped because an endpoint was down at contact start
    missed_contacts: int = 0
    #: contacts erased outright by the per-contact drop probability
    dropped_contacts: int = 0
    #: in-flight transfers truncated by a severed link or endpoint crash
    #: (the slot is charged but no copy arrives)
    interrupted_transfers: int = 0
    #: transfers lost to the i.i.d. per-bundle failure probability
    failed_transfers: int = 0
    #: copies re-accepted for a bundle the node had been told was
    #: delivered before a reboot wiped that knowledge
    reinfections: int = 0


class _CopyTrack:
    """Fused per-bundle copy bookkeeping: count + time integral + window.

    One object replaces the former triple of dicts (accumulator, count,
    born-at) plus the frozen-mean side table — one hash lookup per copy
    delta instead of three, and no per-bundle accumulator objects.
    The integral arithmetic mirrors :class:`TimeWeightedAccumulator`
    exactly (``integral += value · dt`` at every change), so the metric
    values are bit-identical to the unfused implementation.
    """

    __slots__ = ("count", "since", "integral", "born", "frozen_mean")

    def __init__(self, born: float) -> None:
        self.count = 1  # the origin copy
        self.since = born
        self.integral = 0.0
        self.born = born
        #: alive-window duplication mean frozen at delivery, else None
        self.frozen_mean: float | None = None

    def alive_mean(self, now: float, num_nodes: int) -> float:
        """Time-averaged copies/N over the alive window so far."""
        span = now - self.born
        if span <= 0:
            return self.count / num_nodes
        total = self.integral + self.count * (now - self.since)
        return total / span / num_nodes


class MetricsCollector:
    """Per-run metric state, driven by the simulation's mutation hooks."""

    def __init__(
        self,
        num_nodes: int,
        buffer_capacity: int | Sequence[int],
        *,
        record_occupancy: bool = False,
    ) -> None:
        self.num_nodes = num_nodes
        if isinstance(buffer_capacity, int):
            self.total_capacity = num_nodes * buffer_capacity
        else:
            if len(buffer_capacity) != num_nodes:
                raise ValueError(
                    f"per-node buffer_capacity has {len(buffer_capacity)} entries "
                    f"for {num_nodes} nodes"
                )
            self.total_capacity = sum(buffer_capacity)
        self._occupancy = TimeWeightedAccumulator()  # total used slots, all nodes
        self._control_storage = TimeWeightedAccumulator()  # table slots, all nodes
        #: highest instantaneous population-wide fill fraction observed.
        #: Can exceed 1.0 for table-storing protocols: stored immunity
        #: tables / anti-packets add fractional slots on top of a full
        #: relay buffer (the paper's shared-storage model does not bound
        #: table state by the bundle capacity).
        self.peak_occupancy = 0.0
        #: whether the (time, fill) occupancy trace below is recorded;
        #: off by default — sweeps only consume the distilled scalars and
        #: should not pay an append per buffer delta
        self.record_occupancy = record_occupancy
        #: (time, fill fraction) at every occupancy change — piecewise
        #: constant between entries, one entry per buffer/control-storage
        #: delta. **Opt-in**: populated only when ``record_occupancy`` is
        #: True (pass ``record_occupancy=True`` to a directly-driven
        #: :class:`~repro.core.simulation.Simulation`); sweep RunResults
        #: carry only the scalars (mean + peak) distilled from it.
        self.occupancy_series: list[tuple[float, float]] = []
        #: evictions under buffer pressure, by drop-policy name
        self.drops: dict[str, int] = {}
        self._copies: dict[BundleId, _CopyTrack] = {}
        self.signaling = SignalingCounters()
        self.removals = RemovalCounters()
        self.churn = ChurnCounters()
        #: nodes currently down, integrated over time (node-seconds of
        #: downtime); stays flat at zero on unfaulted runs
        self._down_nodes = TimeWeightedAccumulator()
        self.bundle_transmissions = 0
        self.wasted_slots = 0
        self.deliveries: dict[BundleId, float] = {}

    # ----------------------------------------------------------- occupancy

    def _note_fill(self, now: float) -> None:
        fill = (self._occupancy._value + self._control_storage._value) / self.total_capacity
        if fill > self.peak_occupancy:
            self.peak_occupancy = fill
        if not self.record_occupancy:
            return
        if self.occupancy_series and self.occupancy_series[-1][0] == now:
            self.occupancy_series[-1] = (now, fill)
        else:
            self.occupancy_series.append((now, fill))

    def on_buffer_delta(self, delta_slots: int, now: float) -> None:
        """A relay buffer gained/lost ``delta_slots`` copies at ``now``."""
        self._occupancy.add(float(delta_slots), now)
        self._note_fill(now)

    def on_control_storage_delta(self, delta_slots: float, now: float) -> None:
        """A node's stored control state changed by ``delta_slots`` slots."""
        self._control_storage.add(delta_slots, now)
        self._note_fill(now)

    def on_relay_copy_stored(self, bid: BundleId, now: float) -> None:
        """Fused ``on_buffer_delta(+1)`` + ``on_copy_delta(+1, bid)``.

        One call for the sweep kernel's hot store path — the arithmetic
        is the unfused pair's, mutation for mutation, with the error
        guards elided because the caller discharges them structurally
        (the bundle is born since the sender holds a live copy, event
        time never runs backwards, and a +1 delta cannot go negative).
        """
        occ = self._occupancy
        occ._integral += occ._value * (now - occ._since)
        occ._value += 1.0
        occ._since = now
        fill = (occ._value + self._control_storage._value) / self.total_capacity
        if fill > self.peak_occupancy:
            self.peak_occupancy = fill
        if self.record_occupancy:
            series = self.occupancy_series
            if series and series[-1][0] == now:
                series[-1] = (now, fill)
            else:
                series.append((now, fill))
        track = self._copies[bid]
        track.integral += track.count * (now - track.since)
        track.since = now
        track.count += 1

    def on_copies_removed(
        self, bids: list[BundleId], relay_copies: int, reason: str, now: float
    ) -> None:
        """One bulk removal at ``now``: a copy of each of ``bids`` left its
        node, ``relay_copies`` of them from a relay buffer, for ``reason``.

        Per copy, :meth:`on_copy_delta`'s -1, with its error guards elided
        because the caller discharges them structurally (each bundle is
        born, since a node held a live copy, which also keeps its count
        from going negative, and event time never runs backwards); then
        one :meth:`on_buffer_delta` and one removal count for them all.
        The occupancy only falls, so one delta of whole slots leaves its
        value, integral, peak and series where the per-copy deltas would.
        """
        copies = self._copies
        for bid in bids:
            track = copies[bid]
            track.integral += track.count * (now - track.since)
            track.since = now
            track.count -= 1
        if relay_copies:
            self.on_buffer_delta(-relay_copies, now)
        self.removals.add(reason, len(bids))

    def mean_buffer_occupancy(self, now: float) -> float:
        """Time-averaged mean fill fraction across all nodes in [0, now].

        Includes fractional slots consumed by stored immunity tables /
        anti-packets. With heterogeneous capacities this is the
        population-wide used/total slot fraction.
        """
        return (
            self._occupancy.mean(now) + self._control_storage.mean(now)
        ) / self.total_capacity

    # ---------------------------------------------------------- duplication

    def on_bundle_born(self, bid: BundleId, now: float) -> None:
        """First copy of ``bid`` (the origin copy) appeared at ``now``."""
        if bid in self._copies:
            raise ValueError(f"bundle {bid} born twice")
        self._copies[bid] = _CopyTrack(now)

    def on_copy_delta(self, bid: BundleId, delta: int, now: float) -> None:
        """The node-copy count of ``bid`` changed by ``delta`` at ``now``."""
        track = self._copies.get(bid)
        if track is None:
            raise ValueError(f"copy delta for unborn bundle {bid}")
        if now < track.since:
            raise ValueError(f"time went backwards: {track.since} -> {now}")
        track.integral += track.count * (now - track.since)
        track.since = now
        track.count += delta
        if track.count < 0:
            raise ValueError(f"negative copy count for {bid}")

    def _alive_mean(self, bid: BundleId, now: float) -> float:
        """Time-averaged copies/N over the bundle's alive window so far."""
        return self._copies[bid].alive_mean(now, self.num_nodes)

    def mean_duplication_rate(self, now: float) -> float:
        """Average over bundles of the alive-window duplication rate.

        Delivered bundles contribute their value frozen at delivery time;
        undelivered ones contribute their running value up to ``now``.
        """
        if not self._copies:
            return 0.0
        total = 0.0
        num_nodes = self.num_nodes
        for track in self._copies.values():
            frozen = track.frozen_mean
            total += frozen if frozen is not None else track.alive_mean(now, num_nodes)
        return total / len(self._copies)

    # ------------------------------------------------------------- delivery

    def on_delivered(self, bid: BundleId, now: float) -> None:
        """``bid`` reached its destination at ``now``."""
        if bid in self.deliveries:
            raise ValueError(f"bundle {bid} delivered twice")
        self.deliveries[bid] = now
        # Freeze the duplication measure at the end of the alive window
        # (the destination's brand-new copy carries zero dt-weight here).
        self._copies[bid].frozen_mean = self._alive_mean(bid, now)

    def delivery_ratio(self, offered: int) -> float:
        """Delivered / offered."""
        if offered <= 0:
            raise ValueError("offered must be positive")
        return len(self.deliveries) / offered

    def completion_time(self, offered: int) -> float | None:
        """Time the last bundle arrived, or None if not all arrived."""
        if len(self.deliveries) < offered:
            return None
        return max(self.deliveries.values())

    # ----------------------------------------------------------------- churn

    def on_crash(self, now: float) -> None:
        """A node crashed at ``now``."""
        self.churn.crashes += 1
        self._down_nodes.add(1.0, now)

    def on_recovery(self, now: float) -> None:
        """A node recovered at ``now``."""
        self.churn.recoveries += 1
        self._down_nodes.add(-1.0, now)

    def downtime(self, now: float) -> float:
        """Total node-seconds of downtime in [0, now]."""
        return self._down_nodes.integral(now)

    def mean_nodes_down(self, now: float) -> float:
        """Time-averaged number of simultaneously-down nodes in [0, now]."""
        return self._down_nodes.mean(now)

    # ------------------------------------------------------------- signaling

    def on_control_units(self, kind: str, units: int) -> None:
        self.signaling.add(kind, units)

    def on_batched_contacts(self, contacts: int) -> None:
        """Account the per-contact signaling of ``contacts`` bulk-processed
        encounters: two summary vectors (one each way) per contact.

        The sweep kernel's skip path settles its swept contacts, and the
        zero-transfer contacts its end-of-run flush settles, through this
        instead of one :meth:`on_control_units` call per contact; the resulting
        counter is identical because the summary-vector count is a plain
        order-independent sum.
        """
        self.signaling.summary_vector += 2 * contacts

    def on_transmission(self) -> None:
        self.bundle_transmissions += 1

    def on_wasted_slot(self) -> None:
        self.wasted_slots += 1

    def on_removal(self, reason: str) -> None:
        self.removals.add(reason)

    def on_policy_drop(self, policy: str) -> None:
        """A drop policy evicted a stored copy under buffer pressure."""
        self.drops[policy] = self.drops.get(policy, 0) + 1
