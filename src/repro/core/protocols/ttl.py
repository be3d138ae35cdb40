"""Epidemic with constant TTL (Harras et al. 2005) and the dynamic-TTL
enhancement (paper Section III, Algorithm 1).

Constant TTL: every *relayed* copy expires ``ttl`` seconds after it was
stored; a successful transmission renews the TTL of both copies (the
sender's relay copy is refreshed, the receiver's copy starts fresh). The
source's origin copies are the application queue and carry no TTL —
otherwise the per-contact transfer capacity (a handful of bundles) could
never keep a 50-bundle queue alive and delivery would collapse to zero at
every load, which is not what the paper measures. The premature-discard
failure mode of Figs 13–14 is the *relay* copies dying: when the typical
encounter interval exceeds the TTL, forwarded copies evaporate before their
next transmission opportunity and delivery degenerates to whatever the
source can push directly.

Dynamic TTL (enhancement): instead of a constant, each node sets
``TTL = multiplier × (interval between its last two encounters)`` — Algo 1
uses multiplier 2. Crucially, the TTL is re-armed for **every buffered
copy at every encounter** (SetDynamicTTL runs whenever the node's interval
estimate updates): a copy therefore expires only when the node's next
encounter takes more than ``multiplier ×`` its usual rhythm — an adaptive
dry-spell garbage collector, which is what the paper's intuition ("bundles
should be buffered according to the interval between two encounters")
describes. Sparse neighbourhoods (long intervals) buffer bundles longer;
dense ones recycle buffer space quickly; diurnal gaps purge overnight.
Until a node has observed two encounters it has no interval estimate and
the copy gets ``default_ttl`` (infinite by default — nothing is discarded
on a cold start). The protocol is the only reader of encounter timing, so
it keeps the node's :class:`EncounterHistory` itself and notes each
encounter in ``on_encounter_started`` before re-arming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bundle import NO_EXPIRY, StoredBundle
from repro.core.protocols.base import Protocol
from repro.validation import require_bool, require_real

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.node import Node
    from repro.core.protocols.base import SimulationServices


@dataclass(slots=True)
class EncounterHistory:
    """Per-node encounter timing, feeding the dynamic-TTL rule (Algo 1).

    ``last_interval`` is the gap between the node's last two *rendezvous*
    — encounters closer together than ``min_rendezvous_gap`` (e.g. several
    devices gathered at one spot, or an iMote sighting the same crowd on
    consecutive scans) count as a single rendezvous. Without this
    debouncing, a burst of encounters seconds apart would collapse the
    interval estimate to ~0 and the dynamic-TTL rule (TTL = 2 × interval)
    would discard every buffered bundle on the spot. The 120 s default
    matches the scan granularity of the iMote hardware behind the paper's
    trace.
    """

    #: Encounters closer than this are one rendezvous for interval purposes.
    min_rendezvous_gap: float = 120.0
    last_encounter_time: float | None = None
    last_interval: float | None = None
    encounter_count: int = 0

    def note_encounter(self, now: float) -> None:
        """Record an encounter start at ``now``."""
        self.encounter_count += 1
        if self.last_encounter_time is None:
            self.last_encounter_time = now
            return
        gap = now - self.last_encounter_time
        if gap <= self.min_rendezvous_gap:
            # Same rendezvous burst: keep measuring from the burst start.
            return
        self.last_interval = gap
        self.last_encounter_time = now


class FixedTTLEpidemic(Protocol):
    """Epidemic flooding with a constant per-copy TTL."""

    name = "ttl"

    def __init__(self, node, sim, rng, *, ttl: float, expire_origin: bool = False) -> None:  # type: ignore[no-untyped-def]
        super().__init__(node, sim, rng)
        self.ttl = ttl
        self.expire_origin = expire_origin

    def _arm(self, sb: StoredBundle, now: float) -> None:
        if sb.is_origin and not self.expire_origin:
            return  # the application queue carries no TTL
        self.sim.set_expiry(self.node, sb, now + self.ttl)

    def on_bundle_created(self, sb: StoredBundle, now: float) -> None:
        if self.expire_origin:
            self._arm(sb, now)

    def on_copy_received(
        self, sb: StoredBundle, now: float, sender_copy: StoredBundle | None = None
    ) -> None:
        self._arm(sb, now)

    def on_transmitted(self, sb: StoredBundle, peer: Node, now: float) -> None:
        super().on_transmitted(sb, peer, now)
        self._arm(sb, now)  # renewal: forwarding proves the copy is useful


@dataclass(frozen=True)
class FixedTTLConfig:
    """Factory for :class:`FixedTTLEpidemic`.

    Attributes:
        ttl: Constant TTL in seconds (paper sweeps 50–300; figures use 300).
        expire_origin: Also expire the source's own queue. Off by default
            (the application queue outliving the TTL is the physically
            sensible reading); turning it on reproduces the *collapse*
            regime of the paper's RWP study, where constant-TTL delivery
            drops to ~25% because bundles die at the source before their
            first transmission opportunity.
    """

    ttl: float = 300.0
    expire_origin: bool = False
    protocol_name = "ttl"

    def __post_init__(self) -> None:
        require_real("ttl", self.ttl)
        require_bool("expire_origin", self.expire_origin)
        if not (self.ttl > 0):
            raise ValueError(f"ttl must be positive, got {self.ttl}")

    @property
    def label(self) -> str:
        suffix = ", origin expires" if self.expire_origin else ""
        return f"Epidemic with TTL={self.ttl:g}{suffix}"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> FixedTTLEpidemic:
        return FixedTTLEpidemic(
            node, sim, rng, ttl=self.ttl, expire_origin=self.expire_origin
        )


class DynamicTTLEpidemic(Protocol):
    """Enhancement 1: TTL = multiplier × the node's last encounter interval."""

    name = "dynamic_ttl"

    def __init__(
        self, node, sim, rng, *, multiplier: float, default_ttl: float,  # type: ignore[no-untyped-def]
        expire_origin: bool = False,
    ) -> None:
        super().__init__(node, sim, rng)
        self.multiplier = multiplier
        self.default_ttl = default_ttl
        self.expire_origin = expire_origin
        self.history = EncounterHistory()

    def _current_ttl(self) -> float:
        interval = self.history.last_interval
        if interval is None:
            return self.default_ttl
        return self.multiplier * interval

    def _arm(self, sb: StoredBundle, now: float) -> None:
        if sb.is_origin and not self.expire_origin:
            return  # the application queue carries no TTL
        ttl = self._current_ttl()
        expiry = NO_EXPIRY if math.isinf(ttl) else now + ttl
        self.sim.set_expiry(self.node, sb, expiry)

    def on_bundle_created(self, sb: StoredBundle, now: float) -> None:
        if self.expire_origin:
            self._arm(sb, now)

    def on_copy_received(
        self, sb: StoredBundle, now: float, sender_copy: StoredBundle | None = None
    ) -> None:
        self._arm(sb, now)

    def on_transmitted(self, sb: StoredBundle, peer: Node, now: float) -> None:
        super().on_transmitted(sb, peer, now)
        self._arm(sb, now)

    def on_encounter_started(self, peer: Node, now: float) -> None:
        self.history.note_encounter(now)
        # SetDynamicTTL re-runs for every buffered copy whenever the node's
        # interval estimate updates — the adaptive dry-spell collector.
        for sb in self.node.relay:
            self._arm(sb, now)
        if self.expire_origin:
            for sb in list(self.node.origin.values()):
                self._arm(sb, now)


@dataclass(frozen=True)
class DynamicTTLConfig:
    """Factory for :class:`DynamicTTLEpidemic`.

    Attributes:
        multiplier: TTL = multiplier × last inter-encounter interval
            (Algorithm 1 uses 2.0).
        default_ttl: TTL before a node has an interval estimate; infinite
            by default (no cold-start discards).
    """

    multiplier: float = 2.0
    default_ttl: float = math.inf
    expire_origin: bool = False
    protocol_name = "dynamic_ttl"

    def __post_init__(self) -> None:
        require_real("multiplier", self.multiplier)
        require_real("default_ttl", self.default_ttl)
        require_bool("expire_origin", self.expire_origin)
        if not (self.multiplier > 0):
            raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        if not (self.default_ttl > 0):
            raise ValueError(f"default_ttl must be positive, got {self.default_ttl}")

    @property
    def label(self) -> str:
        suffix = ", origin expires" if self.expire_origin else ""
        return f"Epidemic with dynamic TTL (x{self.multiplier:g}{suffix})"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> DynamicTTLEpidemic:
        return DynamicTTLEpidemic(
            node,
            sim,
            rng,
            multiplier=self.multiplier,
            default_ttl=self.default_ttl,
            expire_origin=self.expire_origin,
        )
