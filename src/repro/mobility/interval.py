"""Controlled inter-encounter-interval scenarios (paper Fig. 14).

Section V-B1 evaluates constant-TTL epidemic under two scenarios that differ
*only* in the maximum interval between a node's successive encounters:

    "Both scenarios include 20 nodes, each of which has at most 20
     encounters with other nodes. The only difference ... is that the
     interval time between two successive encounters is set to a maximum
     of 400 and 2000 seconds respectively."

:func:`generate_interval_scenario` builds such a trace: every node
participates in at most ``max_encounters_per_node`` encounters, and the gap
between a node's successive encounters is uniform in
``[min_interval, max_interval]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import Contact, ContactTrace
from repro.validation import require_int


@dataclass(frozen=True)
class IntervalScenarioConfig:
    """Parameters for a controlled-interval scenario.

    Attributes:
        num_nodes: Population size (paper: 20).
        max_encounters_per_node: Encounter budget per node (paper: 20).
        min_interval / max_interval: Uniform bounds on the gap between a
            node's successive encounters (paper compares max 400 vs 2000 s).
        min_duration / max_duration: Uniform bounds on encounter duration;
            the default range carries 1–3 bundle transfers at the paper's
            100 s per-bundle transmission time, short enough that the
            inter-encounter interval (not the contact itself) dominates a
            relay copy's survival window — the effect Fig. 14 isolates.
    """

    num_nodes: int = 20
    max_encounters_per_node: int = 20
    min_interval: float = 50.0
    max_interval: float = 400.0
    min_duration: float = 150.0
    max_duration: float = 350.0

    def __post_init__(self) -> None:
        require_int("num_nodes", self.num_nodes, 2)
        require_int("max_encounters_per_node", self.max_encounters_per_node, 1)
        if not (0 <= self.min_interval <= self.max_interval):
            raise ValueError("need 0 <= min_interval <= max_interval")
        if not (0 < self.min_duration <= self.max_duration):
            raise ValueError("need 0 < min_duration <= max_duration")


def generate_interval_scenario(
    config: IntervalScenarioConfig | None = None, *, seed: int = 0
) -> ContactTrace:
    """Generate a trace respecting the per-node encounter budget and gaps.

    Construction — a *controlled comparison* by design: encounters happen
    in rounds. Each round shuffles the population and pairs adjacent nodes
    (an odd node sits the round out), so every node has exactly one
    encounter per round and at most ``max_encounters_per_node`` in total.
    Timing then flows from the interval draws alone: a node becomes
    available one uniform ``[min_interval, max_interval]`` draw after its
    previous encounter ends, and an encounter starts when both partners
    are available.

    Because the pairing structure, durations and the *uniform quantiles* of
    the interval draws depend only on ``seed`` — never on ``max_interval``
    — two scenarios generated with the same seed differ exactly the way
    the paper's Fig 14 scenarios do: same who-meets-whom, stretched
    inter-encounter intervals.
    """
    c = config or IntervalScenarioConfig()
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x14E5]))
    rounds = c.max_encounters_per_node
    # draw ALL structure first, in a max_interval-independent order
    pairings: list[list[tuple[int, int]]] = []
    durations: list[list[float]] = []
    interval_u: list[list[float]] = []  # uniform quantiles per (round, node)
    for _ in range(rounds):
        order = rng.permutation(c.num_nodes).tolist()
        pairs = [
            (order[k], order[k + 1]) for k in range(0, c.num_nodes - 1, 2)
        ]
        pairings.append(pairs)
        durations.append(
            [float(rng.uniform(c.min_duration, c.max_duration)) for _ in pairs]
        )
        interval_u.append([float(rng.random()) for _ in range(c.num_nodes)])

    def interval(u: float) -> float:
        return c.min_interval + u * (c.max_interval - c.min_interval)

    next_free = [interval(interval_u[0][i]) for i in range(c.num_nodes)]
    contacts: list[Contact] = []
    for rnd in range(rounds):
        for pair_idx, (a, b) in enumerate(pairings[rnd]):
            start = max(next_free[a], next_free[b])
            dur = durations[rnd][pair_idx]
            contacts.append(Contact(start=start, end=start + dur, a=a, b=b))
            for node in (a, b):
                # the node's next availability: rest one interval draw
                u = interval_u[(rnd + 1) % rounds][node]
                next_free[node] = start + dur + interval(u)
    trace = ContactTrace(
        contacts,
        c.num_nodes,
        name=f"interval(max={c.max_interval:g},seed={seed})",
    )
    trace.validate_disjoint_pairs()
    return trace
