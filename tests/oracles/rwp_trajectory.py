"""Reference trajectory loop for the subscriber-point RWP model.

:class:`ReferenceSubscriberPointRWP` is the original per-object generator
of ``repro.mobility.rwp.SubscriberPointRWP``: one :class:`Segment` per
pause or move, one :class:`Trajectory` per node, the next waypoint drawn
with ``rng.choice`` and each move's length from a scalar ``np.hypot``.
The production generator writes segment columns in one loop instead; it
must draw the same random stream and produce the same segments bit for
bit, which ``tests/mobility/test_rwp.py::TestOracleIdentity`` asserts.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.rwp import RWPConfig
from repro.mobility.trajectory import Segment, Trajectory


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
