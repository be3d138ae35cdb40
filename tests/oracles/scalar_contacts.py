"""The scalar contact extractor: one object per segment, one loop per pair.

This is the reference that :func:`repro.mobility.contacts_from_trajectories`
is checked against. A node's movement is a :class:`Trajectory`, a sequence
of :class:`Segment` objects, each a pause (endpoints equal) or a
constant-velocity move. On every overlapping segment pair of two nodes the
squared distance is a quadratic in time, and :func:`window_below_range`
takes the below-range window from its roots; :func:`pair_contact_windows`
sweeps the two segment lists and :func:`merge_windows` fuses the windows
per pair. :func:`exact_contacts` runs that sweep over every node pair.

The vectorized extractor in :mod:`repro.mobility.fastcontact` repeats this
arithmetic operation for operation in NumPy float64, so both produce the
same trace bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.trajectory import SegmentColumns


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


def columns_from_trajectories(trajectories: Sequence[Trajectory]) -> SegmentColumns:
    """Pack trajectories' segments into columns, in node-id order."""
    trajectories = sorted(trajectories, key=lambda t: t.node)
    counts = [len(t.segments) for t in trajectories]
    node = np.repeat(np.asarray([t.node for t in trajectories], dtype=np.int64), counts)
    flat = [s for t in trajectories for s in t.segments]
    return SegmentColumns(
        node,
        np.asarray([s.t0 for s in flat], dtype=np.float64),
        np.asarray([s.t1 for s in flat], dtype=np.float64),
        np.asarray([s.x0 for s in flat], dtype=np.float64),
        np.asarray([s.y0 for s in flat], dtype=np.float64),
        np.asarray([s.x1 for s in flat], dtype=np.float64),
        np.asarray([s.y1 for s in flat], dtype=np.float64),
    )


def trajectories_from_columns(columns: SegmentColumns) -> list[Trajectory]:
    """One :class:`Trajectory` per node block (validating every segment)."""
    per_node: dict[int, list[Segment]] = {}
    for node, *row in zip(*(column.tolist() for column in columns), strict=True):
        per_node.setdefault(node, []).append(Segment(*row))
    return [Trajectory(node, segments) for node, segments in per_node.items()]


def window_below_range(
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


def merge_windows(
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
            w = window_below_range(sa, sb, t0, t1, range_sq)
            if w is not None:
                windows.append(w)
        # advance whichever segment ends first
        if sa.t1 <= sb.t1:
            i += 1
        else:
            j += 1
    return merge_windows(windows)


def exact_contacts(
    trajectories: Sequence[Trajectory] | SegmentColumns,
    comm_range: float,
    *,
    contact_cap: float | None = 500.0,
    min_duration: float = 1.0,
    horizon: float | None = None,
    name: str = "",
) -> ContactTrace:
    """The contact trace of a population, one node pair at a time.

    Takes the arguments of :func:`repro.mobility.contacts_from_trajectories`;
    segment columns are validated and turned into trajectories first.
    """
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    if isinstance(trajectories, SegmentColumns):
        trajectories = trajectories_from_columns(trajectories.validated())
    n = len(trajectories)
    ids = sorted(t.node for t in trajectories)
    if ids != list(range(n)):
        raise ValueError(f"trajectory node ids must be 0..{n - 1}, got {ids}")
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
