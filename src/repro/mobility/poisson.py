"""Homogeneous Poisson contact generation — the analytic model's twin.

The fluid/Markov formulas in :mod:`repro.analytic` assume every node pair
meets as an independent Poisson process with rate β. The trace-driven
mobility models (campus, RWP) only *approximate* that — their inter-meeting
gaps are lognormal or geometry-induced, which is exactly right for
reproducing the paper but muddies surrogate validation: any disagreement
mixes genuine model error with mobility-assumption mismatch. This generator
produces the assumption itself, so the cross-validation gate
(:mod:`repro.analytic.calibration`) measures pure surrogate error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import Contact, ContactTrace


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
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        # written as not (valid) so NaN fails too
        if not self.beta > 0:
            raise ValueError(f"beta (meeting rate) must be positive, got {self.beta}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")


def generate_poisson_trace(
    config: PoissonContactConfig, *, seed: int = 0
) -> ContactTrace:
    """Draw one realisation of the homogeneous Poisson contact process.

    Every unordered pair receives Poisson(β) meeting instants over
    ``[0, horizon)``; each meeting becomes a ``duration``-second contact,
    clipped at the horizon. Overlapping windows of the same pair (rare
    when ``duration ≪ 1/β``) are fused by
    :meth:`~repro.mobility.contact.ContactTrace.coalesced`, so per-pair
    windows are always disjoint, as the simulator expects.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, 0x9015507])
    )
    n = config.num_nodes
    mean_gap = 1.0 / config.beta
    contacts: list[Contact] = []
    for a in range(n - 1):
        for b in range(a + 1, n):
            t = float(rng.exponential(mean_gap))
            while t < config.horizon:
                end = min(t + config.duration, config.horizon)
                if end > t:
                    contacts.append(Contact(t, end, a, b))
                t += float(rng.exponential(mean_gap))
    trace = ContactTrace(
        contacts,
        n,
        horizon=config.horizon,
        name=f"poisson(n={n}, beta={config.beta:g})",
    )
    return trace.coalesced()
