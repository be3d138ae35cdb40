"""Reference loops for the Poisson contact generator and trace coalescing.

:func:`generate_poisson_trace` is the original per-object generator of
``repro.mobility.poisson.generate_poisson_trace``: one scalar
``rng.exponential`` draw per gap, one :class:`Contact` per meeting, and
the pair loop :func:`coalesced` to fuse each pair's windows.
:func:`coalesced` is the original body of
``repro.mobility.contact.ContactTrace.coalesced``. The production code
builds both as columns through the array window fold; it must draw the
same random stream and produce the same trace bit for bit, which
``tests/mobility/test_poisson.py`` asserts.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.poisson import PoissonContactConfig


def coalesced(trace: ContactTrace) -> ContactTrace:
    """Merge overlapping/adjacent contacts of the same pair into one."""
    by_pair: dict[tuple[int, int], list[Contact]] = {}
    for c in trace.contacts:
        by_pair.setdefault(c.pair, []).append(c)
    fused: list[Contact] = []
    for pair, cs in by_pair.items():
        cs.sort()
        cur_s, cur_e = cs[0].start, cs[0].end
        for c in cs[1:]:
            if c.start <= cur_e:  # overlapping or touching
                cur_e = max(cur_e, c.end)
            else:
                fused.append(Contact(cur_s, cur_e, *pair))
                cur_s, cur_e = c.start, c.end
        fused.append(Contact(cur_s, cur_e, *pair))
    return ContactTrace(fused, trace.num_nodes, horizon=trace.horizon, name=trace.name)


def generate_poisson_trace(
    config: PoissonContactConfig, *, seed: int = 0
) -> ContactTrace:
    """Draw one realisation of the homogeneous Poisson contact process."""
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
    return coalesced(trace)
