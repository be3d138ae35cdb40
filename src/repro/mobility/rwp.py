"""Random-Way-Point mobility models.

Two variants are provided. Each writes its nodes' trajectories as
:class:`~repro.mobility.trajectory.SegmentColumns`, one row per pause or
move, and turns them into a
:class:`~repro.mobility.contact.ContactTrace` with
:func:`~repro.mobility.fastcontact.contacts_from_trajectories`:

* :class:`SubscriberPointRWP` — the paper's modified RWP (Section IV). Nodes
  hop between at most 100 fixed *subscriber points* inside a 1 km² area,
  pause < 1000 s at each, and travel with speed = distance / travel-time
  where travel time is at least 100 s, bounding speeds to (0, 10] m/s.
  This construction avoids the two classic-RWP pathologies the paper cites
  (Resta & Santi): nodes never decay to zero speed and keep moving along
  rendezvous points until the simulation horizon.
* :class:`ClassicRWP` — the textbook model (uniform waypoint in the free
  area, uniform speed, optional pause) for comparison studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import ContactTrace
from repro.mobility.fastcontact import contacts_from_trajectories
from repro.mobility.trajectory import SegmentColumns
from repro.validation import require_finite, require_int


def _check_shared(config: RWPConfig | ClassicRWPConfig) -> None:
    """The checks both RWP configurations share; each error names its field.

    Types are checked first, so a string fails with its field's name;
    ranges are written as ``not (valid)`` so NaN fails every check.
    """
    c = config
    require_int("num_nodes", c.num_nodes, 2)
    for name in ("horizon", "area_side", "comm_range", "max_pause"):
        require_finite(name, getattr(c, name))
    if c.contact_cap is not None:
        require_finite("contact_cap", c.contact_cap)
    if not c.horizon > 0:
        raise ValueError(f"horizon must be positive, got {c.horizon}")
    if not c.area_side > 0:
        raise ValueError(f"area_side must be positive, got {c.area_side}")
    if not c.comm_range > 0:
        raise ValueError(f"comm_range must be positive, got {c.comm_range}")
    if c.contact_cap is not None and not c.contact_cap > 0:
        raise ValueError(f"contact_cap must be positive or None, got {c.contact_cap}")
    if not c.max_pause >= 0:
        raise ValueError(f"max_pause must be >= 0, got {c.max_pause}")


@dataclass(frozen=True)
class RWPConfig:
    """Shared Random-Way-Point parameters (paper Section IV defaults).

    Attributes:
        num_nodes: Population size (paper: 12).
        horizon: Simulated period in seconds (paper: 600,000).
        area_side: Side of the square area in metres (paper: 1 km²).
        comm_range: Radio range in metres (paper surveys ranges ≤ 300 m;
            the 25 m default keeps the network sparse enough that relaying
            — not direct source→destination transfer — carries delivery,
            the regime all of the paper's RWP separations live in).
        contact_cap: Maximum encounter duration (paper: 500 s); None = off.
        num_subscriber_points: Fixed rendezvous points (< 100 per km²);
            at least 2, so every point has somewhere to go.
        max_pause: Maximum pause at a waypoint (paper: < 1000 s).
        min_travel_time: Minimum point-to-point travel time (paper: 100 s).
        max_travel_time: Maximum draw for the travel-time; the effective
            travel time is also floored so speed never exceeds ``max_speed``.
        max_speed: Speed ceiling in m/s (paper: 10 m/s).
        max_hop_distance: Subscriber points further apart than this are not
            chosen as consecutive waypoints (paper: < 1000 m).
    """

    num_nodes: int = 12
    horizon: float = 600_000.0
    area_side: float = 1_000.0
    comm_range: float = 25.0
    contact_cap: float | None = 500.0
    num_subscriber_points: int = 96
    max_pause: float = 1_000.0
    min_travel_time: float = 100.0
    max_travel_time: float = 900.0
    max_speed: float = 10.0
    max_hop_distance: float = 1_000.0

    def __post_init__(self) -> None:
        _check_shared(self)
        require_int("num_subscriber_points", self.num_subscriber_points, 2)
        for name in ("min_travel_time", "max_travel_time", "max_speed", "max_hop_distance"):
            require_finite(name, getattr(self, name))
        if not (2 <= self.num_subscriber_points <= 100):
            raise ValueError(
                "num_subscriber_points must be in [2, 100] per km², "
                f"got {self.num_subscriber_points}"
            )
        if not (0 < self.min_travel_time <= self.max_travel_time):
            raise ValueError(
                "need 0 < min_travel_time <= max_travel_time, got "
                f"{self.min_travel_time} and {self.max_travel_time}"
            )
        if not self.max_speed > 0:
            raise ValueError(f"max_speed must be positive, got {self.max_speed}")
        if not self.max_hop_distance > 0:
            raise ValueError(
                f"max_hop_distance must be positive, got {self.max_hop_distance}"
            )


class SubscriberPointRWP:
    """The paper's subscriber-point RWP trace generator."""

    def __init__(self, config: RWPConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or RWPConfig()
        self.seed = seed

    def _place_points(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly scatter subscriber points over the area."""
        c = self.config
        return rng.uniform(0.0, c.area_side, size=(c.num_subscriber_points, 2))

    def _neighbour_lists(
        self, points: np.ndarray
    ) -> tuple[list[list[int]], np.ndarray]:
        """For each point, the candidate next-hop points within max distance,
        and the point-to-point distance matrix."""
        c = self.config
        diff = points[:, None, :] - points[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        reachable = (dist <= c.max_hop_distance) & (dist > 0.0)
        out: list[list[int]] = []
        for i, row in enumerate(reachable):
            cand = np.flatnonzero(row).tolist()
            if not cand:  # isolated point: allow any other point
                cand = [j for j in range(len(points)) if j != i]
            out.append(cand)
        return out, dist

    def generate_segments(self) -> SegmentColumns:
        """Every node's trajectory as segment columns, built in one loop.

        Per node: a random start point, then alternately a pause there and
        a move to a random neighbouring point, until the horizon clips the
        last segment. Each pause or move is appended as one row of
        ``t0, t1, x0, y0, x1, y1``. The draws and their order are those
        of the per-object reference loop in
        ``tests/oracles/rwp_trajectory.py`` (``nbrs[rng.integers(len(nbrs))]``
        is the draw ``rng.choice(nbrs)`` makes, and each move's length is
        read off the distance matrix), so the rows equal its segments bit
        for bit.
        """
        c = self.config
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0x5297])
        )
        points = self._place_points(rng)
        neighbours, dist = self._neighbour_lists(points)
        hop = dist.tolist()
        px, py = points[:, 0].tolist(), points[:, 1].tolist()
        horizon, max_pause, max_speed = c.horizon, c.max_pause, c.max_speed
        uniform, integers = rng.uniform, rng.integers
        rows: list[float] = []  # t0, t1, x0, y0, x1, y1 per segment
        counts: list[int] = []
        for _ in range(c.num_nodes):
            first = len(rows)
            t = 0.0
            here = int(integers(len(px)))
            while t < horizon:
                # pause at the current subscriber point
                pause = uniform(0.0, max_pause)
                if pause > 0.0:
                    end = min(t + pause, horizon)
                    if end > t:
                        rows += (t, end, px[here], py[here], px[here], py[here])
                        t = end
                    if t >= horizon:
                        break
                # travel to a random neighbouring subscriber point
                nbrs = neighbours[here]
                nxt = nbrs[integers(len(nbrs))]
                travel = uniform(c.min_travel_time, c.max_travel_time)
                travel = max(travel, hop[nxt][here] / max_speed)  # speed <= max_speed
                end = min(t + travel, horizon)
                if end > t:
                    x0, y0, x1, y1 = px[here], py[here], px[nxt], py[nxt]
                    if end < t + travel:  # clipped at horizon: interpolate endpoint
                        frac = (end - t) / travel
                        x1 = x0 + frac * (x1 - x0)
                        y1 = y0 + frac * (y1 - y0)
                    rows += (t, end, x0, y0, x1, y1)
                    t = end
                here = nxt
            if len(rows) == first:  # degenerate horizon: stand still
                rows += (0.0, horizon, px[here], py[here], px[here], py[here])
            counts.append((len(rows) - first) // 6)
        return _segment_columns(rows, counts)

    def generate(self) -> ContactTrace:
        """Produce the full contact trace for this configuration."""
        c = self.config
        return contacts_from_trajectories(
            self.generate_segments(),
            c.comm_range,
            contact_cap=c.contact_cap,
            horizon=c.horizon,
            name=f"rwp-subscriber(seed={self.seed})",
        )


@dataclass(frozen=True)
class ClassicRWPConfig:
    """Parameters for the textbook RWP model."""

    num_nodes: int = 12
    horizon: float = 600_000.0
    area_side: float = 1_000.0
    comm_range: float = 100.0
    contact_cap: float | None = 500.0
    min_speed: float = 0.5
    max_speed: float = 10.0
    max_pause: float = 120.0

    def __post_init__(self) -> None:
        _check_shared(self)
        require_finite("min_speed", self.min_speed)
        require_finite("max_speed", self.max_speed)
        if not self.min_speed > 0:
            # min_speed == 0 reproduces the Resta & Santi decay pathology the
            # paper warns about; forbid it instead of silently degrading.
            raise ValueError("min_speed must be > 0 (zero speed stalls the model)")
        if not self.max_speed >= self.min_speed:
            raise ValueError("max_speed must be >= min_speed")


class ClassicRWP:
    """Textbook Random-Way-Point over a free square area."""

    def __init__(self, config: ClassicRWPConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or ClassicRWPConfig()
        self.seed = seed

    def generate_segments(self) -> SegmentColumns:
        """Every node's trajectory as segment columns, built in one loop.

        Per node: a random start, then alternately a move to a uniform
        waypoint at a uniform speed and a pause there, until the horizon
        clips the last segment. Each move or pause is one row of
        ``t0, t1, x0, y0, x1, y1``; the rows equal the segments of the
        per-object reference loop in ``tests/oracles/rwp_trajectory.py``
        bit for bit.
        """
        c = self.config
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0xC1A5])
        )
        horizon, area_side, max_pause = c.horizon, c.area_side, c.max_pause
        uniform = rng.uniform
        rows: list[float] = []  # t0, t1, x0, y0, x1, y1 per segment
        counts: list[int] = []
        for _ in range(c.num_nodes):
            first = len(rows)
            t = 0.0
            x, y = uniform(0.0, area_side, size=2).tolist()
            while t < horizon:
                tx, ty = uniform(0.0, area_side, size=2).tolist()
                speed = float(uniform(c.min_speed, c.max_speed))
                dist = math.hypot(tx - x, ty - y)
                travel = dist / speed if dist > 0 else 0.0
                if travel > 0:
                    end = min(t + travel, horizon)
                    fx, fy = tx, ty
                    if end < t + travel:  # clipped at horizon: interpolate endpoint
                        frac = (end - t) / travel
                        fx = x + frac * (tx - x)
                        fy = y + frac * (ty - y)
                    rows += (t, end, x, y, fx, fy)
                    t = end
                    x, y = fx, fy
                    if t >= horizon:
                        break
                pause = float(uniform(0.0, max_pause))
                if pause > 0:
                    end = min(t + pause, horizon)
                    if end > t:
                        rows += (t, end, x, y, x, y)
                        t = end
            if len(rows) == first:  # degenerate horizon: stand still
                rows += (0.0, horizon, x, y, x, y)
            counts.append((len(rows) - first) // 6)
        return _segment_columns(rows, counts)

    def generate(self) -> ContactTrace:
        """Produce the contact trace."""
        c = self.config
        return contacts_from_trajectories(
            self.generate_segments(),
            c.comm_range,
            contact_cap=c.contact_cap,
            horizon=c.horizon,
            name=f"rwp-classic(seed={self.seed})",
        )


def _segment_columns(rows: list[float], counts: list[int]) -> SegmentColumns:
    """Segment columns from flat ``t0, t1, x0, y0, x1, y1`` rows, node
    ``k`` owning the next ``counts[k]`` of them."""
    table = np.array(rows, dtype=np.float64).reshape(-1, 6).T
    node = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return SegmentColumns(node, *np.ascontiguousarray(table))
