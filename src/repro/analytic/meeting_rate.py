"""Meeting-rate estimation from contact traces.

Bridges simulation inputs and the analytic models: β is the pairwise
meeting rate the fluid/Markov formulas need, estimated here from the same
:class:`~repro.mobility.contact.ContactTrace` the simulator consumes.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.contact import ContactTrace


def pairwise_meeting_rates(trace: ContactTrace) -> dict[tuple[int, int], float]:
    """Meetings per second for every pair that met at least once."""
    assert trace.horizon is not None
    counts: dict[tuple[int, int], int] = {}
    for c in trace:
        counts[c.pair] = counts.get(c.pair, 0) + 1
    return {pair: n / trace.horizon for pair, n in counts.items()}


def estimate_meeting_rate(trace: ContactTrace, *, min_capacity: float | None = None) -> float:
    """Population-average pairwise meeting rate β.

    Args:
        min_capacity: If given, only contacts of at least this duration
            count (e.g. pass the simulator's ``bundle_tx_time`` so β counts
            only meetings that can actually carry a bundle — the rate the
            delivery-delay formulas need). Durations come from the trace's
            cached :meth:`~repro.mobility.contact.ContactTrace.contact_arrays`
            columns: ``ends - starts`` is the float64 subtraction
            :attr:`Contact.duration <repro.mobility.contact.Contact.duration>`
            makes, so the count is exact.

    Returns:
        Average meetings per second per pair, over *all* pairs (pairs that
        never met contribute zero, matching the homogeneous-β model).
    """
    assert trace.horizon is not None
    if trace.horizon <= 0:
        raise ValueError("trace horizon must be positive")
    total_pairs = trace.num_nodes * (trace.num_nodes - 1) // 2
    if min_capacity is None:
        meetings = len(trace)
    else:
        starts, ends, _a, _b = trace.contact_arrays()
        meetings = int(np.count_nonzero(ends - starts >= min_capacity))
    return meetings / (trace.horizon * total_pairs)
