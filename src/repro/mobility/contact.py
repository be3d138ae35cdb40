"""Contact events and contact traces — the common currency of the framework.

A :class:`Contact` is one encounter between two nodes: both are within radio
range during ``[start, end)``. A :class:`ContactTrace` is a validated,
time-sorted sequence of contacts over a fixed node population and time
horizon; every mobility model in :mod:`repro.mobility` produces one and the
simulation core consumes one.
"""

from __future__ import annotations

import math
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
        end: Encounter end time (exclusive), seconds; finite and greater
            than ``start``.
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
        if not (math.inf > self.end > self.start >= 0.0):
            raise ValueError(
                f"contact requires finite 0 <= start < end, got [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        """Encounter duration in seconds."""
        return self.end - self.start

    @property
    def pair(self) -> tuple[int, int]:
        """Normalised ``(a, b)`` node pair."""
        return (self.a, self.b)


@dataclass
class ContactTrace:
    """A time-sorted contact sequence over ``num_nodes`` nodes.

    Args:
        contacts: Encounters; sorted on construction.
        num_nodes: Population size. Node ids must lie in ``[0, num_nodes)``.
        horizon: End of observation, finite. Defaults to the last contact
            end. A simulation run that exceeds the horizon is marked
            *failed* (the paper's rule for its 524,162 s campus trace).
        name: Optional label used in reports.

    A trace assembled by :meth:`from_arrays` holds only its columns until
    something reads :attr:`contacts`, iterates or indexes it; ``len()``
    and :meth:`contact_arrays` never create the per-contact objects.
    """

    contacts: list[Contact]
    num_nodes: int
    horizon: float | None = None
    name: str = ""
    _arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False, default=None
    )

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
        elif not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
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
        per contact: finite ``0 <= start < end``, ``a < b`` with both ids
        in ``[0, num_nodes)``, ``(start, end, a, b)`` order, and a finite
        horizon that does not precede the last contact end. :class:`Contact`
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
        if not np.all((s >= 0.0) & (e > s) & (e < math.inf)):
            raise ValueError("every contact requires finite 0 <= start < end")
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

    def coalesced(self) -> ContactTrace:
        """Merge overlapping/touching contacts of the same pair into one.

        Mobility generators can emit back-to-back encounters for a pair (e.g.
        a node pausing twice at the same subscriber point); the simulator
        treats a contact as one uninterrupted exchange opportunity, so
        adjacent windows are fused. The trace's columns go through the
        array fold of contact extraction at a zero gap
        (:func:`~repro.mobility.fastcontact._fold_windows`), and the result
        is a columnar trace over the same population, horizon and name.
        """
        from repro.mobility.fastcontact import _fold_windows

        assert self.horizon is not None
        starts, ends, a, b = _fold_windows(
            *self.contact_arrays(), contact_cap=None, min_duration=0.0, gap=0.0
        )
        return ContactTrace.from_arrays(
            starts, ends, a, b, num_nodes=self.num_nodes, horizon=self.horizon,
            name=self.name,
        )

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
    vectorized pass — the contact sweep uses it to route *degenerate*
    encounters (zero transfer budget) around the session machinery, and
    its skip path to leave them out of an inert population's sweep. The
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
