"""Contact events and contact traces — the common currency of the framework.

A :class:`Contact` is one encounter between two nodes: both are within radio
range during ``[start, end)``. A :class:`ContactTrace` is a validated,
time-sorted sequence of contacts over a fixed node population and time
horizon; every mobility model in :mod:`repro.mobility` produces one and the
simulation core consumes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from numpy.typing import ArrayLike


@dataclass(frozen=True, slots=True, order=True)
class Contact:
    """One encounter between two nodes.

    Node ids are normalised so ``a < b``; ordering is by ``(start, end, a, b)``
    which matches processing order in the simulator.

    Attributes:
        start: Encounter begin time (inclusive), seconds.
        end: Encounter end time (exclusive), seconds; must exceed ``start``.
        a: Lower node id.
        b: Higher node id.
    """

    start: float
    end: float
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"self-contact for node {self.a}")
        if self.a > self.b:
            # normalise: dataclass is frozen, so go through object.__setattr__
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)
        if not (self.end > self.start >= 0.0):
            raise ValueError(
                f"contact requires 0 <= start < end, got [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        """Encounter duration in seconds."""
        return self.end - self.start

    @property
    def pair(self) -> tuple[int, int]:
        """Normalised ``(a, b)`` node pair."""
        return (self.a, self.b)

    def involves(self, node: int) -> bool:
        """True if ``node`` participates in this contact."""
        return node == self.a or node == self.b

    def peer_of(self, node: int) -> int:
        """Return the other participant.

        Raises:
            ValueError: if ``node`` is not a participant.
        """
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not part of contact {self}")

    def overlaps(self, other: Contact) -> bool:
        """True if the two contacts' time windows intersect."""
        return self.start < other.end and other.start < self.end


@dataclass
class ContactTrace:
    """A time-sorted contact sequence over ``num_nodes`` nodes.

    Args:
        contacts: Encounters; sorted on construction.
        num_nodes: Population size. Node ids must lie in ``[0, num_nodes)``.
        horizon: End of observation. Defaults to the last contact end. A
            simulation run that exceeds the horizon is marked *failed* (the
            paper's rule for its 524,162 s campus trace).
        name: Optional label used in reports.

    A trace assembled by :meth:`from_arrays` holds only its columns until
    something reads :attr:`contacts`, iterates or indexes it; ``len()``,
    :meth:`contact_arrays` and :meth:`encounter_streams` never create the
    per-contact objects.
    """

    contacts: list[Contact]
    num_nodes: int
    horizon: float | None = None
    name: str = ""
    _by_node: dict[int, list[Contact]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _by_pair: dict[tuple[int, int], list[Contact]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _streams: (
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    ) = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        self.contacts = sorted(self.contacts)
        for c in self.contacts:
            if not (0 <= c.a < self.num_nodes and 0 <= c.b < self.num_nodes):
                raise ValueError(
                    f"contact {c} references nodes outside [0, {self.num_nodes})"
                )
        last_end = max((c.end for c in self.contacts), default=0.0)
        if self.horizon is None:
            self.horizon = last_end
        elif self.horizon < last_end:
            raise ValueError(
                f"horizon {self.horizon} precedes last contact end {last_end}"
            )

    def __getattr__(self, name: str) -> list[Contact]:
        # Reached only for attributes the instance lacks: the contact list
        # of a columnar trace (see from_arrays) until its first read.
        arrays = self.__dict__.get("_arrays")
        if name != "contacts" or arrays is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        starts, ends, a, b = (column.tolist() for column in arrays)
        self.contacts = [
            Contact(s, e, i, j) for s, e, i, j in zip(starts, ends, a, b, strict=True)
        ]
        return self.contacts

    # ----------------------------------------------------------- container API

    def __len__(self) -> int:
        if self._arrays is not None:
            return len(self._arrays[0])
        return len(self.contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self.contacts)

    def __getitem__(self, idx: int) -> Contact:
        return self.contacts[idx]

    # -------------------------------------------------------------- queries

    def nodes(self) -> list[int]:
        """All node ids in the population (0..num_nodes-1)."""
        return list(range(self.num_nodes))

    def active_nodes(self) -> set[int]:
        """Node ids that appear in at least one contact."""
        out: set[int] = set()
        for c in self.contacts:
            out.add(c.a)
            out.add(c.b)
        return out

    def _node_index(self) -> dict[int, list[Contact]]:
        """Per-node contact lists, built lazily on first query."""
        if self._by_node is None:
            idx: dict[int, list[Contact]] = {}
            for c in self.contacts:  # self.contacts is time-sorted
                idx.setdefault(c.a, []).append(c)
                idx.setdefault(c.b, []).append(c)
            self._by_node = idx
        return self._by_node

    def _pair_index(self) -> dict[tuple[int, int], list[Contact]]:
        """Per-pair contact lists, built lazily on first query."""
        if self._by_pair is None:
            idx: dict[tuple[int, int], list[Contact]] = {}
            for c in self.contacts:
                idx.setdefault(c.pair, []).append(c)
            self._by_pair = idx
        return self._by_pair

    def contacts_of(self, node: int) -> list[Contact]:
        """All contacts involving ``node``, in time order.

        O(k) per call after a one-off lazy index build (the contact list
        is immutable once the trace is constructed).
        """
        return list(self._node_index().get(node, ()))

    def contacts_between(self, a: int, b: int) -> list[Contact]:
        """All contacts between the (unordered) pair ``{a, b}``, in time
        order. O(k) per call after a one-off lazy index build."""
        return list(self._pair_index().get(pair_key(a, b), ()))

    def contact_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The trace as columnar NumPy arrays ``(starts, ends, a, b)``.

        Built lazily on first call and cached (the contact list is
        immutable once the trace is constructed). Time columns are
        float64 — bit-identical to the per-contact Python floats — and
        node columns are intp, so bulk consumers (the simulation's
        degenerate-encounter pre-classification, trace statistics) can
        vectorize without touching :class:`Contact` objects.

        The columns are read-only: the one cached copy is shared by every
        cell of a sweep (and by forked pool workers), so an in-place write
        would corrupt every later run.
        """
        if self._arrays is None:
            import numpy as np

            n = len(self.contacts)
            starts = np.empty(n, dtype=np.float64)
            ends = np.empty(n, dtype=np.float64)
            a = np.empty(n, dtype=np.intp)
            b = np.empty(n, dtype=np.intp)
            for i, c in enumerate(self.contacts):
                starts[i] = c.start
                ends[i] = c.end
                a[i] = c.a
                b[i] = c.b
            self._arrays = _frozen((starts, ends, a, b))
        return self._arrays

    def encounter_streams(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-node encounter-time streams ``(offsets, ts, nid_tail, same, dts)``.

        ``ts[offsets[i] : offsets[i + 1]]`` is node ``i``'s chronological
        sequence of contact start times: both endpoints of every contact
        contribute one entry, endpoint ``a`` ranked before ``b`` at equal
        contact index — the event loop's own per-node visitation order,
        recovered by a stable sort of the interleaved endpoint columns.
        ``nid_tail``, ``same`` and ``dts`` are the companion difference
        columns (``nid_sorted[1:]``, the same-node mask and
        ``ts[1:] - ts[:-1]``) that per-run consumers combine with their
        own gap thresholds. Built lazily once per trace and cached
        (read-only, like :meth:`contact_arrays`); a run truncated at
        ``end_time`` selects each node's prefix with
        ``searchsorted(ts[lo:hi], end_time, "right")``.
        """
        if self._streams is None:
            import numpy as np

            starts, _ends, a, b = self.contact_arrays()
            m = len(starts)
            nids = np.empty(2 * m, dtype=np.intp)
            nids[0::2] = a
            nids[1::2] = b
            times = np.empty(2 * m, dtype=np.float64)
            times[0::2] = starts
            times[1::2] = starts
            order = np.argsort(nids, kind="stable")
            nid_sorted = nids[order]
            ts = times[order]
            offsets = np.zeros(self.num_nodes + 1, dtype=np.intp)
            np.cumsum(np.bincount(nids, minlength=self.num_nodes), out=offsets[1:])
            nid_tail = nid_sorted[1:]
            same = nid_tail == nid_sorted[:-1]
            dts = ts[1:] - ts[:-1]
            self._streams = _frozen((offsets, ts, nid_tail, same, dts))
        return self._streams

    def first_contact_at_or_after(self, t: float) -> Contact | None:
        """Earliest contact with ``start >= t``, or None."""
        import numpy as np

        i = int(np.searchsorted(self.contact_arrays()[0], t, side="left"))
        return self.contacts[i] if i < len(self) else None

    def window(self, t0: float, t1: float, *, clip: bool = False) -> ContactTrace:
        """Sub-trace over ``[t0, t1)``, re-based to start at 0.

        Args:
            t0: Window start (inclusive).
            t1: Window end (exclusive); must exceed ``t0``.
            clip: How to treat contacts that straddle a window edge.
                False (default): drop them — only contacts fully contained
                in the window survive, so a long encounter spanning the cut
                vanishes entirely. True: truncate them to the overlapping
                portion instead, which conserves in-window contact time
                (the windows of a partition sum to the original trace's
                total contact time).
        """
        if not t1 > t0:
            raise ValueError("window requires t1 > t0")
        if clip:
            sub = [
                Contact(max(c.start, t0) - t0, min(c.end, t1) - t0, c.a, c.b)
                for c in self.contacts
                if min(c.end, t1) > max(c.start, t0)
            ]
        else:
            sub = [
                Contact(c.start - t0, c.end - t0, c.a, c.b)
                for c in self.contacts
                if c.start >= t0 and c.end <= t1
            ]
        return ContactTrace(
            sub, self.num_nodes, horizon=t1 - t0, name=f"{self.name}[{t0},{t1})"
        )

    def total_contact_time(self) -> float:
        """Sum of all encounter durations."""
        return sum(c.duration for c in self.contacts)

    # ------------------------------------------------------------- assembly

    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[tuple[float, float, int, int]],
        num_nodes: int,
        *,
        horizon: float | None = None,
        name: str = "",
    ) -> ContactTrace:
        """Build a trace from ``(start, end, a, b)`` tuples."""
        return cls(
            [Contact(start=s, end=e, a=a, b=b) for (s, e, a, b) in rows],
            num_nodes,
            horizon=horizon,
            name=name,
        )

    @classmethod
    def from_arrays(
        cls,
        starts: ArrayLike,
        ends: ArrayLike,
        a: ArrayLike,
        b: ArrayLike,
        *,
        num_nodes: int,
        horizon: float,
        name: str = "",
    ) -> ContactTrace:
        """Build a trace from its columns, without per-contact objects.

        The columns are copied into the trace's :meth:`contact_arrays`
        cache and checked vectorially for what ``__post_init__`` checks
        per contact: ``0 <= start < end``, ``a < b`` with both ids in
        ``[0, num_nodes)``, ``(start, end, a, b)`` order, and a horizon
        that does not precede the last contact end. :class:`Contact`
        objects are created only when something first reads
        :attr:`contacts`, iterates or indexes the trace.

        Raises:
            ValueError: when a column or invariant is broken.
        """
        import numpy as np

        cols = (
            np.array(starts, dtype=np.float64),
            np.array(ends, dtype=np.float64),
            np.array(a, dtype=np.intp),
            np.array(b, dtype=np.intp),
        )
        s, e, lo, hi = cols
        if any(c.ndim != 1 or len(c) != len(s) for c in cols):
            raise ValueError("contact columns must be 1-D and of equal length")
        if not np.all((s >= 0.0) & (e > s)):
            raise ValueError("every contact requires 0 <= start < end")
        if not np.all(lo < hi):
            raise ValueError("node columns must satisfy a < b")
        if len(s) and (lo.min() < 0 or hi.max() >= num_nodes):
            raise ValueError(f"contacts reference nodes outside [0, {num_nodes})")
        # (start, end, a, b) non-decreasing: each adjacent pair must be
        # ordered on its first differing key
        s0, s1, e0, e1 = s[:-1], s[1:], e[:-1], e[1:]
        a0, a1, b0, b1 = lo[:-1], lo[1:], hi[:-1], hi[1:]
        ordered = (s0 < s1) | (
            (s0 == s1)
            & ((e0 < e1) | ((e0 == e1) & ((a0 < a1) | ((a0 == a1) & (b0 <= b1)))))
        )
        if not np.all(ordered):
            raise ValueError("contacts are not in (start, end, a, b) order")
        if len(e) and horizon < e.max():
            raise ValueError(f"horizon {horizon} precedes last contact end {e.max()}")
        trace = cls([], int(num_nodes), horizon=float(horizon), name=str(name))
        del trace.contacts  # rebuilt from the columns on first read
        trace._arrays = _frozen(cols)
        return trace

    def merged_with(self, other: ContactTrace) -> ContactTrace:
        """Union of two traces over the same population."""
        if other.num_nodes != self.num_nodes:
            raise ValueError("cannot merge traces with different populations")
        assert self.horizon is not None and other.horizon is not None
        return ContactTrace(
            self.contacts + other.contacts,
            self.num_nodes,
            horizon=max(self.horizon, other.horizon),
            name=self.name or other.name,
        )

    def coalesced(self) -> ContactTrace:
        """Merge overlapping/adjacent contacts of the same pair into one.

        Mobility generators can emit back-to-back encounters for a pair (e.g.
        a node pausing twice at the same subscriber point); the simulator
        treats a contact as one uninterrupted exchange opportunity, so
        adjacent windows are fused.
        """
        by_pair: dict[tuple[int, int], list[Contact]] = {}
        for c in self.contacts:
            by_pair.setdefault(c.pair, []).append(c)
        fused: list[Contact] = []
        for pair, cs in by_pair.items():
            cs.sort()
            cur_s, cur_e = cs[0].start, cs[0].end
            for c in cs[1:]:
                if c.start <= cur_e:  # overlapping or touching
                    cur_e = max(cur_e, c.end)
                else:
                    fused.append(Contact(cur_s, cur_e, *pair))
                    cur_s, cur_e = c.start, c.end
            fused.append(Contact(cur_s, cur_e, *pair))
        return ContactTrace(fused, self.num_nodes, horizon=self.horizon, name=self.name)

    def validate_disjoint_pairs(self) -> None:
        """Raise if any node pair has overlapping contact windows."""
        by_pair: dict[tuple[int, int], list[Contact]] = {}
        for c in self.contacts:
            by_pair.setdefault(c.pair, []).append(c)
        for pair, cs in by_pair.items():
            cs.sort()
            for prev, nxt in zip(cs, cs[1:], strict=False):
                if nxt.start < prev.end:
                    raise ValueError(
                        f"pair {pair} has overlapping contacts {prev} and {nxt}"
                    )


_Columns = TypeVar("_Columns", bound=tuple[Any, ...])


def _frozen(columns: _Columns) -> _Columns:
    """``columns`` with every array marked read-only."""
    for column in columns:
        column.flags.writeable = False
    return columns


def zero_transfer_mask(
    trace: ContactTrace,
    bundle_tx_time: float | Sequence[float],
    *,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Boolean mask of contacts whose duration admits zero transfers.

    A contact carries ``floor(duration / tx_time)`` bundles, with the
    per-pair transfer time being the slower of the two radios when
    ``bundle_tx_time`` is per-node. This classifies the whole trace in one
    vectorized pass — the simulation uses it to route *degenerate*
    encounters (zero transfer budget) around the session machinery, and
    out of the contact stream when their bookkeeping is deferred. The
    comparison reproduces the scalar
    ``int(duration / tx_time) == 0`` bit-for-bit: both are IEEE-754
    float64 divisions and truncation toward zero of a non-negative
    quotient is zero exactly when the quotient is below 1.

    Args:
        arrays: The trace's ``(starts, ends, a, b)`` columns when the
            caller already materialised them — one run fetches the columnar
            form once and threads it through every bulk consumer.
    """
    import numpy as np

    starts, ends, a, b = arrays if arrays is not None else trace.contact_arrays()
    if isinstance(bundle_tx_time, (int, float)):
        tx: float | np.ndarray = float(bundle_tx_time)
    else:
        per_node = np.asarray(bundle_tx_time, dtype=np.float64)
        tx = np.maximum(per_node[a], per_node[b])
    return (ends - starts) / tx < 1.0


def pair_key(a: int, b: int) -> tuple[int, int]:
    """Normalised unordered pair key."""
    return (a, b) if a < b else (b, a)


def all_pairs(num_nodes: int) -> list[tuple[int, int]]:
    """All unordered node pairs of a population."""
    return [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]


def contacts_sorted(contacts: Sequence[Contact]) -> bool:
    """True if ``contacts`` is sorted by (start, end, a, b)."""
    return all(x <= y for x, y in zip(contacts, contacts[1:], strict=False))
