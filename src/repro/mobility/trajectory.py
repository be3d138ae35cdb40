"""Piecewise-linear trajectories and exact geometric contact extraction.

A node's movement is a :class:`Trajectory`: a sequence of time segments, each
either a pause (endpoints equal) or a constant-velocity move. Contact
extraction between two trajectories is *exact*: on every overlapping segment
pair the squared inter-node distance is a quadratic in time, so the
below-range window is obtained from the quadratic's roots rather than by
sampling. This is both faster and free of the missed-short-contact artefacts
a sampling detector would have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.mobility.contact import Contact, ContactTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray


@dataclass(frozen=True, slots=True)
class Segment:
    """Constant-velocity movement (or pause) during ``[t0, t1]``."""

    t0: float
    t1: float
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.t1 > self.t0):
            raise ValueError(f"segment requires t1 > t0, got [{self.t0}, {self.t1}]")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def vx(self) -> float:
        return (self.x1 - self.x0) / (self.t1 - self.t0)

    @property
    def vy(self) -> float:
        return (self.y1 - self.y0) / (self.t1 - self.t0)

    @property
    def speed(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0) / (self.t1 - self.t0)

    def position(self, t: float) -> tuple[float, float]:
        """Position at time ``t`` (must lie within the segment)."""
        if not (self.t0 <= t <= self.t1):
            raise ValueError(f"t={t} outside segment [{self.t0}, {self.t1}]")
        s = (t - self.t0) / (self.t1 - self.t0)
        return (self.x0 + s * (self.x1 - self.x0), self.y0 + s * (self.y1 - self.y0))


class Trajectory:
    """A node's full movement: contiguous segments covering [start, end]."""

    def __init__(self, node: int, segments: Sequence[Segment]) -> None:
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        for prev, nxt in zip(segments, segments[1:], strict=False):
            if not math.isclose(prev.t1, nxt.t0, rel_tol=0, abs_tol=1e-9):
                raise ValueError(
                    f"segments not contiguous: {prev.t1} -> {nxt.t0}"
                )
            if not (
                math.isclose(prev.x1, nxt.x0, abs_tol=1e-6)
                and math.isclose(prev.y1, nxt.y0, abs_tol=1e-6)
            ):
                raise ValueError("segments not spatially contiguous")
        self.node = node
        self.segments = list(segments)

    @property
    def start_time(self) -> float:
        return self.segments[0].t0

    @property
    def end_time(self) -> float:
        return self.segments[-1].t1

    def position(self, t: float) -> tuple[float, float]:
        """Position at time ``t`` by binary search over segments."""
        if not (self.start_time <= t <= self.end_time):
            raise ValueError(f"t={t} outside trajectory span")
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.segments[mid].t1 < t:
                lo = mid + 1
            else:
                hi = mid
        return self.segments[lo].position(t)

    def max_speed(self) -> float:
        return max(s.speed for s in self.segments)


class SegmentColumns(NamedTuple):
    """Every segment of a population as parallel columns.

    Row ``k`` is one segment of node ``node[k]``. Each node's segments are
    consecutive rows in time order, and the nodes come in blocks
    ``0, 1, ..., n-1``. This is the form the vectorized extraction engine
    consumes, and the form :meth:`SubscriberPointRWP.generate_segments
    <repro.mobility.rwp.SubscriberPointRWP.generate_segments>` produces
    without building a :class:`Segment` or :class:`Trajectory` per row.
    """

    node: NDArray[np.int64]
    t0: NDArray[np.float64]
    t1: NDArray[np.float64]
    x0: NDArray[np.float64]
    y0: NDArray[np.float64]
    x1: NDArray[np.float64]
    y1: NDArray[np.float64]

    @classmethod
    def from_trajectories(cls, trajectories: Sequence[Trajectory]) -> SegmentColumns:
        """Pack trajectories' segments into columns, in node-id order."""
        trajectories = sorted(trajectories, key=lambda t: t.node)
        counts = [len(t.segments) for t in trajectories]
        node = np.repeat(
            np.asarray([t.node for t in trajectories], dtype=np.int64), counts
        )
        flat = [s for t in trajectories for s in t.segments]
        return cls(
            node,
            np.asarray([s.t0 for s in flat], dtype=np.float64),
            np.asarray([s.t1 for s in flat], dtype=np.float64),
            np.asarray([s.x0 for s in flat], dtype=np.float64),
            np.asarray([s.y0 for s in flat], dtype=np.float64),
            np.asarray([s.x1 for s in flat], dtype=np.float64),
            np.asarray([s.y1 for s in flat], dtype=np.float64),
        )

    def to_trajectories(self) -> list[Trajectory]:
        """One :class:`Trajectory` per node block (validating every segment)."""
        per_node: dict[int, list[Segment]] = {}
        for node, *row in zip(*(column.tolist() for column in self), strict=True):
            per_node.setdefault(node, []).append(Segment(*row))
        return [Trajectory(node, segments) for node, segments in per_node.items()]

    @property
    def num_nodes(self) -> int:
        """Number of node blocks."""
        if len(self.node) == 0:
            return 0
        return int(np.count_nonzero(np.diff(self.node))) + 1

    @property
    def end_time(self) -> float:
        """Latest end of any node's trajectory (its last segment's ``t1``)."""
        last = np.append(self.node[1:] != self.node[:-1], True)
        return float(self.t1[last].max())

    def validated(self) -> SegmentColumns:
        """The columns as int64/float64 arrays, checked like the objects.

        Checks vectorially what :class:`Segment` and :class:`Trajectory`
        check per object, at the same tolerances: ``t1 > t0`` on every
        row, node ids ``0..n-1`` in consecutive blocks, and each node's
        segments contiguous in time (1e-9 s) and space (1e-6 m).

        Raises:
            ValueError: naming the first broken invariant.
        """
        node = np.asarray(self.node)
        if node.ndim != 1 or not np.issubdtype(node.dtype, np.integer):
            raise ValueError("segment node column must be 1-D integers")
        cols = SegmentColumns(
            node.astype(np.int64, copy=False),
            *(np.asarray(column, dtype=np.float64) for column in self[1:]),
        )
        node, t0, t1, x0, y0, x1, y1 = cols
        if any(c.ndim != 1 or len(c) != len(node) for c in cols):
            raise ValueError("segment columns must be 1-D and of equal length")
        if len(node) == 0:
            raise ValueError("segment columns hold no segments")
        bad = np.flatnonzero(~(t1 > t0))
        if bad.size:
            k = bad[0]
            raise ValueError(f"segment requires t1 > t0, got [{t0[k]}, {t1[k]}]")
        step = np.diff(node)
        if node[0] != 0 or not np.all((step == 0) | (step == 1)):
            raise ValueError("segment node ids must be 0..n-1 in consecutive blocks")
        same = step == 0
        gap = np.flatnonzero(
            same & ~_isclose(t1[:-1], t0[1:], rel_tol=0.0, abs_tol=1e-9)
        )
        if gap.size:
            k = gap[0]
            raise ValueError(f"segments not contiguous: {t1[k]} -> {t0[k + 1]}")
        jump = same & ~(
            _isclose(x1[:-1], x0[1:], rel_tol=1e-9, abs_tol=1e-6)
            & _isclose(y1[:-1], y0[1:], rel_tol=1e-9, abs_tol=1e-6)
        )
        if jump.any():
            raise ValueError("segments not spatially contiguous")
        return cols


def _isclose(
    a: NDArray[np.float64], b: NDArray[np.float64], *, rel_tol: float, abs_tol: float
) -> NDArray[np.bool_]:
    """Element-wise :func:`math.isclose` (same tolerance rule, same infinities)."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)
        tol = np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(b)), abs_tol)
        return (a == b) | (np.isfinite(diff) & (diff <= tol))


def _window_below_range(
    sa: Segment, sb: Segment, t0: float, t1: float, range_sq: float
) -> tuple[float, float] | None:
    """Sub-interval of [t0, t1] where |pos_a - pos_b| <= range.

    Both segments must cover [t0, t1]. Returns None if never in range.
    """
    ax, ay = sa.position(t0)
    bx, by = sb.position(t0)
    dx, dy = ax - bx, ay - by
    dvx, dvy = sa.vx - sb.vx, sa.vy - sb.vy
    # |d + dv*s|^2 <= range_sq  for s in [0, t1 - t0]
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - range_sq
    span = t1 - t0
    if a < 1e-15:  # no relative motion: distance constant
        return (t0, t1) if c <= 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sqrt_disc = math.sqrt(disc)
    s_lo = (-b - sqrt_disc) / (2.0 * a)
    s_hi = (-b + sqrt_disc) / (2.0 * a)
    lo = max(s_lo, 0.0)
    hi = min(s_hi, span)
    if hi <= lo:
        return None
    return (t0 + lo, t0 + hi)


def _merge_windows(
    windows: list[tuple[float, float]], *, gap: float = 1e-9
) -> list[tuple[float, float]]:
    """Fuse touching/overlapping windows (within ``gap``)."""
    if not windows:
        return []
    windows.sort()
    merged = [windows[0]]
    for s, e in windows[1:]:
        ps, pe = merged[-1]
        if s <= pe + gap:
            merged[-1] = (ps, max(pe, e))
        else:
            merged.append((s, e))
    return merged


def pair_contact_windows(
    ta: Trajectory, tb: Trajectory, comm_range: float
) -> list[tuple[float, float]]:
    """All maximal time windows in which the two nodes are within range."""
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    range_sq = comm_range * comm_range
    windows: list[tuple[float, float]] = []
    i = j = 0
    segs_a, segs_b = ta.segments, tb.segments
    while i < len(segs_a) and j < len(segs_b):
        sa, sb = segs_a[i], segs_b[j]
        t0 = max(sa.t0, sb.t0)
        t1 = min(sa.t1, sb.t1)
        if t1 > t0:
            w = _window_below_range(sa, sb, t0, t1, range_sq)
            if w is not None:
                windows.append(w)
        # advance whichever segment ends first
        if sa.t1 <= sb.t1:
            i += 1
        else:
            j += 1
    return _merge_windows(windows)


#: Contact-extraction engines accepted by :func:`contacts_from_trajectories`.
CONTACT_ENGINES = ("fast", "exact")


def contacts_from_trajectories(
    trajectories: Sequence[Trajectory] | SegmentColumns,
    comm_range: float,
    *,
    contact_cap: float | None = 500.0,
    min_duration: float = 1.0,
    horizon: float | None = None,
    name: str = "",
    engine: str = "fast",
) -> ContactTrace:
    """Extract the full contact trace from a set of trajectories.

    Args:
        trajectories: One :class:`Trajectory` per node, or the whole
            population as :class:`SegmentColumns` (checked vectorially by
            :meth:`SegmentColumns.validated`).
        comm_range: Radio range in metres.
        contact_cap: Truncate each encounter to at most this many seconds
            (the paper caps encounters at 500 s); None disables.
        min_duration: Discard encounters shorter than this.
        horizon: Trace horizon; defaults to the latest trajectory end.
        engine: ``"fast"`` (default) uses the vectorized broad/narrow-phase
            detector in :mod:`repro.mobility.fastcontact`, which builds the
            trace from columns without per-contact objects; ``"exact"`` is
            the scalar per-pair reference sweep. Both produce bit-identical
            traces — ``"exact"`` exists as the independent oracle the fast
            path is validated against.

    Returns:
        A validated :class:`ContactTrace` over the population (node ids
        must be 0..n-1).
    """
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    if engine not in CONTACT_ENGINES:
        raise ValueError(
            f"unknown contact engine {engine!r}; available: {', '.join(CONTACT_ENGINES)}"
        )
    if isinstance(trajectories, SegmentColumns):
        columns = trajectories.validated()
        if engine == "exact":
            trajectories = columns.to_trajectories()
    else:
        n = len(trajectories)
        ids = sorted(t.node for t in trajectories)
        if ids != list(range(n)):
            raise ValueError(f"trajectory node ids must be 0..{n - 1}, got {ids}")
        if engine == "fast":
            columns = SegmentColumns.from_trajectories(trajectories)
    if engine == "fast":
        # imported here: fastcontact imports SegmentColumns from this module
        from repro.mobility.fastcontact import extract_contacts_fast

        return extract_contacts_fast(
            columns,
            comm_range,
            contact_cap=contact_cap,
            min_duration=min_duration,
            horizon=horizon,
            name=name,
        )
    n = len(trajectories)
    by_id = {t.node: t for t in trajectories}
    contacts: list[Contact] = []
    for i in range(n):
        for j in range(i + 1, n):
            for s, e in pair_contact_windows(by_id[i], by_id[j], comm_range):
                if contact_cap is not None:
                    e = min(e, s + contact_cap)
                if e - s >= min_duration:
                    contacts.append(Contact(start=s, end=e, a=i, b=j))
    if horizon is None:
        horizon = max(t.end_time for t in trajectories)
    horizon = max(horizon, max((c.end for c in contacts), default=0.0))
    return ContactTrace(contacts, n, horizon=horizon, name=name)
