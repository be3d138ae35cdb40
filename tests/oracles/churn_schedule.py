"""Reference loop for the churn schedule of the disruption model.

:func:`scheduled_outages` is the original body of
``repro.core.simulation.Simulation._schedule_faults``: per node, one
scalar ``rng.exponential`` draw per up-time and per down-time until an
up-time reaches the horizon, merged with the explicit
``downtime_schedule`` into a union of down intervals. Production draws
each node's times in batches (:func:`repro.core.simulation.churn_intervals`);
it must draw the same stream and schedule the same crashes and recoveries
bit for bit, which ``tests/core/test_faults.py`` asserts.
"""

from __future__ import annotations

import math

from repro.des.rng import RngHub
from repro.faults import FaultSpec


def scheduled_outages(
    spec: FaultSpec, num_nodes: int, fault_seed: int, horizon: float
) -> list[tuple[int, float, float]]:
    """The ``(node, down_at, up_at)`` outages scheduled before ``horizon``.

    ``up_at`` is inf when the recovery would not fire before the horizon.
    """
    hub = RngHub(fault_seed)
    intervals: dict[int, list[list[float]]] = {}
    for node_id, down_at, up_at in spec.downtime_schedule:
        intervals.setdefault(node_id, []).append([down_at, up_at])
    if spec.churn_rate > 0.0:
        mean_uptime = 1.0 / spec.churn_rate
        for i in range(num_nodes):
            rng = hub.stream("churn", i)
            t = 0.0
            while True:
                t += rng.exponential(mean_uptime)
                if t >= horizon:
                    break
                down_at = t
                t += rng.exponential(spec.mean_downtime)
                intervals.setdefault(i, []).append([down_at, t])
    outages: list[tuple[int, float, float]] = []
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
            outages.append((node_id, down_at, up_at if up_at < horizon else math.inf))
    return outages
