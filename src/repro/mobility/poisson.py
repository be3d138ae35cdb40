"""Homogeneous Poisson contact generation — the analytic model's twin.

The fluid/Markov formulas in :mod:`repro.analytic` assume every node pair
meets as an independent Poisson process with rate β. The trace-driven
mobility models (campus, RWP) only *approximate* that — their inter-meeting
gaps are lognormal or geometry-induced, which is exactly right for
reproducing the paper but muddies surrogate validation: any disagreement
mixes genuine model error with mobility-assumption mismatch. This generator
produces the assumption itself, so the cross-validation gate
(:mod:`repro.analytic.calibration`) measures pure surrogate error.

The trace is built as columns: every pair's meeting instants come from one
block-drawn stream of exponential gaps, and the pairs' windows are fused by
the array fold of contact extraction, so no
:class:`~repro.mobility.contact.Contact` object exists until something
reads the contact list. ``tests/oracles/poisson_trace.py`` keeps the scalar
loop this reproduces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import ContactTrace
from repro.mobility.fastcontact import _fold_windows
from repro.validation import require_finite, require_int

#: Most expected meetings ``n(n-1)/2 * beta * horizon`` a config may ask
#: for. Each costs about 40 bytes before any Contact object exists (an
#: 8-byte gap draw and four 8-byte contact columns), so the cap is about
#: 400 MB; the repo's largest Poisson trace, the ODE gate's reference,
#: expects about 5,250.
MAX_EXPECTED_MEETINGS = 10_000_000


@dataclass(frozen=True)
class PoissonContactConfig:
    """Shape of a homogeneous Poisson contact process.

    Attributes:
        num_nodes: Population size.
        beta: Pairwise meeting rate, meetings per second per pair.
        horizon: Observation window, seconds.
        duration: Length of every encounter, seconds. Keep it well below
            the mean inter-meeting gap ``1/beta`` (so one pair's meetings
            stay disjoint) and at or above the simulator's
            ``bundle_tx_time`` (so every meeting can carry a bundle — the
            analytic model counts every meeting as a transfer
            opportunity).
    """

    num_nodes: int = 40
    beta: float = 1.25e-4
    horizon: float = 60_000.0
    duration: float = 30.0

    def __post_init__(self) -> None:
        require_int("num_nodes", self.num_nodes, 2)
        for name in ("beta", "horizon", "duration"):
            require_finite(name, getattr(self, name))
        # written as not (valid) so NaN fails too
        if not self.beta > 0:
            raise ValueError(f"beta (meeting rate) must be positive, got {self.beta}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        meetings = self.num_nodes * (self.num_nodes - 1) / 2 * self.beta * self.horizon
        if meetings > MAX_EXPECTED_MEETINGS:
            raise ValueError(
                f"num_nodes={self.num_nodes}, beta={self.beta:g} and "
                f"horizon={self.horizon:g} expect {meetings:,.0f} meetings, more than "
                f"the {MAX_EXPECTED_MEETINGS:,} a Poisson trace may hold"
            )


def generate_poisson_trace(
    config: PoissonContactConfig, *, seed: int = 0
) -> ContactTrace:
    """Draw one realisation of the homogeneous Poisson contact process.

    Every unordered pair receives Poisson(β) meeting instants over
    ``[0, horizon)``; each meeting becomes a ``duration``-second contact,
    clipped at the horizon. Overlapping or touching windows of the same
    pair (rare when ``duration ≪ 1/β``) are fused, as
    :meth:`~repro.mobility.contact.ContactTrace.coalesced` fuses them, so
    per-pair windows are always disjoint, as the simulator expects.

    Pairs ``(a, b)``, ``a < b``, take their exponential gaps from one
    stream in ``(a, b)`` order: a pair's meetings are the running sums of
    its gaps below the horizon, and the first sum at or past it ends the
    pair, its gap consumed. The stream is drawn in blocks and each pair's
    sums are one ``np.cumsum``, which adds in the order of a scalar
    ``t += gap`` loop, so the columns are bit-identical to that loop's.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, 0x9015507])
    )
    n = config.num_nodes
    mean_gap = 1.0 / config.beta
    horizon = config.horizon
    pair_a, pair_b = np.triu_indices(n, 1)
    # a pair consumes about beta * horizon + 1 gaps: its meetings plus the
    # one that overshoots the horizon
    per_pair = config.beta * horizon + 1.0
    gaps = rng.exponential(mean_gap, size=int(pair_a.size * per_pair) + 64)
    window = 2 * int(per_pair) + 16
    pos = 0
    meetings: list[np.ndarray] = []
    counts: list[int] = []
    for _ in range(pair_a.size):
        while True:
            times = np.cumsum(gaps[pos : pos + window])
            k = int(np.searchsorted(times, horizon))  # first sum >= horizon
            if k < times.size:
                break
            if pos + window > gaps.size:  # the block is spent: draw on
                gaps = np.concatenate(
                    (gaps[pos:], rng.exponential(mean_gap, size=gaps.size))
                )
                pos = 0
            else:
                window *= 2
        meetings.append(times[:k])
        counts.append(k)
        pos += k + 1
    starts = np.concatenate(meetings)
    ends = np.minimum(starts + config.duration, horizon)
    keep = ends > starts
    cols = _fold_windows(
        starts[keep],
        ends[keep],
        np.repeat(pair_a, counts)[keep],
        np.repeat(pair_b, counts)[keep],
        contact_cap=None,
        min_duration=0.0,
        gap=0.0,
    )
    return ContactTrace.from_arrays(
        *cols,
        num_nodes=n,
        horizon=horizon,
        name=f"poisson(n={n}, beta={config.beta:g})",
    )
