"""Contact-trace statistics.

Used three ways:

* calibration tests assert the synthetic campus generator produces traces
  with the qualitative properties the paper relies on (sparse meetings,
  heavy-tailed inter-contact gaps, variable durations);
* EXPERIMENTS.md reports the mobility inputs next to each result;
* the dynamic-TTL analysis relates per-node encounter intervals to TTL
  choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import ContactTrace


@dataclass(frozen=True)
class SeriesSummary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    median: float
    p90: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: list[float]) -> SeriesSummary:
        if not values:
            return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        arr = np.asarray(values, dtype=float)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            p90=float(np.percentile(arr, 90)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of a contact trace."""

    num_nodes: int
    num_contacts: int
    horizon: float
    durations: SeriesSummary
    intercontact_pair: SeriesSummary  #: gaps between successive meetings of a pair
    intercontact_node: SeriesSummary  #: gaps between a node's successive encounters
    encounters_per_node: SeriesSummary
    pairs_that_met: int
    pair_coverage: float  #: fraction of all pairs that met at least once
    contact_time_fraction: float  #: sum of durations / (horizon · #pairs)

    def as_dict(self) -> dict[str, float | int]:
        """Flatten for CSV/JSON reporting."""
        out: dict[str, float | int] = {
            "num_nodes": self.num_nodes,
            "num_contacts": self.num_contacts,
            "horizon": self.horizon,
            "pairs_that_met": self.pairs_that_met,
            "pair_coverage": self.pair_coverage,
            "contact_time_fraction": self.contact_time_fraction,
        }
        for label, s in (
            ("duration", self.durations),
            ("intercontact_pair", self.intercontact_pair),
            ("intercontact_node", self.intercontact_node),
            ("encounters_per_node", self.encounters_per_node),
        ):
            out[f"{label}_mean"] = s.mean
            out[f"{label}_median"] = s.median
            out[f"{label}_p90"] = s.p90
        return out


def per_pair_gaps(trace: ContactTrace) -> dict[tuple[int, int], list[float]]:
    """Gaps between successive contacts of each pair (end -> next start)."""
    by_pair: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for c in trace:
        by_pair.setdefault(c.pair, []).append((c.start, c.end))
    gaps: dict[tuple[int, int], list[float]] = {}
    for pair, windows in by_pair.items():
        windows.sort()
        gaps[pair] = [
            max(0.0, nxt[0] - prev[1]) for prev, nxt in zip(windows, windows[1:], strict=False)
        ]
    return gaps


def per_node_encounter_times(trace: ContactTrace) -> dict[int, list[float]]:
    """Encounter start times per node, in time order."""
    times: dict[int, list[float]] = {i: [] for i in range(trace.num_nodes)}
    for c in trace:
        times[c.a].append(c.start)
        times[c.b].append(c.start)
    return times


def per_node_gaps(trace: ContactTrace) -> dict[int, list[float]]:
    """Gaps between a node's successive encounter starts."""
    out: dict[int, list[float]] = {}
    for node, starts in per_node_encounter_times(trace).items():
        out[node] = [b - a for a, b in zip(starts, starts[1:], strict=False)]
    return out


def compute_trace_stats(trace: ContactTrace) -> TraceStats:
    """Compute the full :class:`TraceStats` summary of a trace."""
    durations = [c.duration for c in trace]
    pair_gap_values = [g for gaps in per_pair_gaps(trace).values() for g in gaps]
    node_gap_values = [g for gaps in per_node_gaps(trace).values() for g in gaps]
    per_node_counts: dict[int, int] = {i: 0 for i in range(trace.num_nodes)}
    pairs: set[tuple[int, int]] = set()
    for c in trace:
        per_node_counts[c.a] += 1
        per_node_counts[c.b] += 1
        pairs.add(c.pair)
    total_pairs = trace.num_nodes * (trace.num_nodes - 1) // 2
    assert trace.horizon is not None
    contact_time_fraction = (
        sum(durations) / (trace.horizon * total_pairs) if durations else 0.0
    )
    return TraceStats(
        num_nodes=trace.num_nodes,
        num_contacts=len(trace),
        horizon=trace.horizon,
        durations=SeriesSummary.of(durations),
        intercontact_pair=SeriesSummary.of(pair_gap_values),
        intercontact_node=SeriesSummary.of(node_gap_values),
        encounters_per_node=SeriesSummary.of(
            [float(v) for v in per_node_counts.values()]
        ),
        pairs_that_met=len(pairs),
        pair_coverage=len(pairs) / total_pairs if total_pairs else 0.0,
        contact_time_fraction=contact_time_fraction,
    )
