"""Reference trajectory loops for the two RWP models.

:class:`ReferenceSubscriberPointRWP` and :class:`ReferenceClassicRWP` are
the original per-object generators of ``repro.mobility.rwp``'s
``SubscriberPointRWP`` and ``ClassicRWP``: one :class:`Segment` per pause
or move and one :class:`Trajectory` per node. The subscriber-point loop
draws the next waypoint with ``rng.choice`` and each move's length from a
scalar ``np.hypot``. The production generators write segment columns in
one loop instead; each must draw the same random stream and produce the
same segments bit for bit, which ``tests/mobility/test_rwp.py`` asserts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.rwp import ClassicRWPConfig, RWPConfig
from tests.oracles.scalar_contacts import Segment, Trajectory


class ReferenceSubscriberPointRWP:
    """The per-object subscriber-point RWP trajectory generator."""

    def __init__(self, config: RWPConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or RWPConfig()
        self.seed = seed

    def _place_points(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly scatter subscriber points over the area."""
        c = self.config
        return rng.uniform(0.0, c.area_side, size=(c.num_subscriber_points, 2))

    def _neighbour_lists(self, points: np.ndarray) -> list[np.ndarray]:
        """For each point, the candidate next-hop points within max distance."""
        c = self.config
        diff = points[:, None, :] - points[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        out: list[np.ndarray] = []
        for i in range(len(points)):
            mask = (dist[i] <= c.max_hop_distance) & (dist[i] > 0.0)
            cand = np.flatnonzero(mask)
            if cand.size == 0:  # isolated point: allow any other point
                cand = np.array([j for j in range(len(points)) if j != i])
            out.append(cand)
        return out

    def _node_trajectory(
        self,
        node: int,
        points: np.ndarray,
        neighbours: list[np.ndarray],
        rng: np.random.Generator,
    ) -> Trajectory:
        c = self.config
        segments: list[Segment] = []
        t = 0.0
        here = int(rng.integers(len(points)))
        while t < c.horizon:
            # pause at the current subscriber point
            pause = float(rng.uniform(0.0, c.max_pause))
            if pause > 0.0:
                end = min(t + pause, c.horizon)
                if end > t:
                    x, y = points[here]
                    segments.append(Segment(t, end, x, y, x, y))
                    t = end
                if t >= c.horizon:
                    break
            # travel to a random neighbouring subscriber point
            nxt = int(rng.choice(neighbours[here]))
            dist = float(np.hypot(*(points[nxt] - points[here])))
            travel = float(rng.uniform(c.min_travel_time, c.max_travel_time))
            travel = max(travel, dist / c.max_speed)  # speed <= max_speed
            end = min(t + travel, c.horizon)
            if end > t:
                x0, y0 = points[here]
                x1, y1 = points[nxt]
                if end < t + travel:  # clipped at horizon: interpolate endpoint
                    frac = (end - t) / travel
                    x1 = x0 + frac * (x1 - x0)
                    y1 = y0 + frac * (y1 - y0)
                segments.append(Segment(t, end, x0, y0, float(x1), float(y1)))
                t = end
            here = nxt
        if not segments:  # degenerate horizon: stand still
            x, y = points[here]
            segments.append(Segment(0.0, c.horizon, x, y, x, y))
        return Trajectory(node, segments)

    def generate_trajectories(self) -> list[Trajectory]:
        """Expose raw trajectories (used by tests and visual inspection)."""
        c = self.config
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0x5297])
        )
        points = self._place_points(rng)
        neighbours = self._neighbour_lists(points)
        return [
            self._node_trajectory(i, points, neighbours, rng)
            for i in range(c.num_nodes)
        ]


class ReferenceClassicRWP:
    """The per-object textbook RWP trajectory generator."""

    def __init__(self, config: ClassicRWPConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or ClassicRWPConfig()
        self.seed = seed

    def _node_trajectory(self, node: int, rng: np.random.Generator) -> Trajectory:
        c = self.config
        segments: list[Segment] = []
        t = 0.0
        x, y = rng.uniform(0.0, c.area_side, size=2)
        while t < c.horizon:
            tx, ty = rng.uniform(0.0, c.area_side, size=2)
            speed = float(rng.uniform(c.min_speed, c.max_speed))
            dist = math.hypot(tx - x, ty - y)
            travel = dist / speed if dist > 0 else 0.0
            if travel > 0:
                end = min(t + travel, c.horizon)
                fx, fy = tx, ty
                if end < t + travel:
                    frac = (end - t) / travel
                    fx = x + frac * (tx - x)
                    fy = y + frac * (ty - y)
                segments.append(Segment(t, end, float(x), float(y), float(fx), float(fy)))
                t = end
                x, y = fx, fy
                if t >= c.horizon:
                    break
            pause = float(rng.uniform(0.0, c.max_pause))
            if pause > 0:
                end = min(t + pause, c.horizon)
                if end > t:
                    segments.append(Segment(t, end, float(x), float(y), float(x), float(y)))
                    t = end
        if not segments:
            segments.append(Segment(0.0, c.horizon, float(x), float(y), float(x), float(y)))
        return Trajectory(node, segments)

    def generate_trajectories(self) -> list[Trajectory]:
        """One trajectory per node, drawn from one stream in node order."""
        c = self.config
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0xC1A5])
        )
        return [self._node_trajectory(i, rng) for i in range(c.num_nodes)]
