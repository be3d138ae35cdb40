"""Epidemic with Encounter Count (Davis et al. 2001) and the EC+TTL
enhancement (paper Section III, Algorithm 2).

**Plain EC**: every copy carries an encounter count, incremented on each
transmission and inherited by the receiver's new copy. Buffers never discard
proactively; when a *full* buffer receives a new (never-seen) bundle, the
stored copy with the highest EC is evicted to make room — a high EC means
the bundle is widely duplicated and can be sacrificed. Undelivered/new
bundles always win over stored high-EC ones (the paper's bundle-9 worked
example). The result: buffers run at capacity and copies are only recycled
under pressure, producing the high occupancy and long delays of Figs 7–12.

**EC+TTL (enhancement)**: two extra rules —

* *Minimum EC before deletion*: a copy that has never been forwarded
  (EC < ``min_ec_evict``) must not be evicted; this protects rare bundles
  with low duplication rates.
* *EC-triggered ageing*: once a copy's EC exceeds ``ec_threshold`` it gets
  ``TTL = ttl_base − (EC − threshold) × ttl_step`` (Algorithm 2: base 300 s,
  step 100 s, threshold 8). Heavily duplicated bundles age out fast, freeing
  buffer for undelivered ones. A copy whose next transmission would assign a
  non-positive TTL is no longer offered — it is too duplicated to be worth
  propagating.

Both EC variants are policy over the *buffer*, not the control plane: they
keep no delivery knowledge, so they are *encounter-inert*
(``Protocol.encounter_inert``) and the sweep's skip path settles their
zero-transfer contacts in one batched pass at end of run instead of
sweeping them one by one (see :mod:`repro.core.sweepkernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bundle import Bundle, StoredBundle
from repro.core.protocols.base import Protocol
from repro.validation import require_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.node import Node
    from repro.core.protocols.base import SimulationServices


class ECEpidemic(Protocol):
    """Encounter-count replacement policy over epidemic flooding."""

    name = "ec"

    #: Copies with EC below this are protected from eviction (0 = none).
    min_ec_evict: int = 0

    def can_accept(self, bundle: Bundle, now: float) -> bool:
        if bundle.destination == self.node.id:
            return True
        if not self.node.relay.is_full:
            return True
        if self.min_ec_evict <= 0:
            # every copy's EC is >= 0, so a full buffer holds a victim
            return True
        return self.node.relay.max_ec_entry(min_ec=self.min_ec_evict) is not None

    def _make_room(self, incoming: Bundle, ec: int, now: float) -> bool:
        # EC's eviction rule IS the protocol; it does not consult the
        # node's configured drop policy. Drops are charged to "max-ec".
        victim = self.node.relay.max_ec_entry(
            min_ec=self.min_ec_evict, exclude=incoming.bid
        )
        if victim is None:
            return False
        self.sim.evict_copy(self.node, victim.bid, policy="max-ec")
        return True


@dataclass(frozen=True)
class ECConfig:
    """Factory for :class:`ECEpidemic` (no parameters)."""

    protocol_name = "ec"

    @property
    def label(self) -> str:
        return "Epidemic with EC"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> ECEpidemic:
        return ECEpidemic(node, sim, rng)


class ECTTLEpidemic(ECEpidemic):
    """Enhancement 2: EC-protected eviction plus EC-triggered ageing."""

    name = "ec_ttl"

    def __init__(
        self,
        node,  # type: ignore[no-untyped-def]
        sim,
        rng,
        *,
        ec_threshold: int,
        ttl_base: float,
        ttl_step: float,
        min_ec_evict: int,
    ) -> None:
        super().__init__(node, sim, rng)
        self.ec_threshold = ec_threshold
        self.ttl_base = ttl_base
        self.ttl_step = ttl_step
        self.min_ec_evict = min_ec_evict

    def _ttl_for_ec(self, ec: int) -> float | None:
        """Algorithm 2's schedule; None while EC is at/below the threshold."""
        if ec <= self.ec_threshold:
            return None
        return self.ttl_base - (ec - self.ec_threshold) * self.ttl_step

    def _apply_ageing(self, sb: StoredBundle, now: float) -> None:
        if sb.is_origin:
            return  # the application queue is never aged out
        ttl = self._ttl_for_ec(sb.ec)
        if ttl is None:
            return
        if ttl <= 0:
            self.sim.remove_copy(self.node, sb.bid, reason="ec-aged-out")
            return
        self.sim.set_expiry(self.node, sb, now + ttl)

    def should_offer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        if sb.bundle.destination == peer.id:
            return True  # delivering to the destination is always worth it
        ttl_after = self._ttl_for_ec(sb.ec + 1)
        if ttl_after is not None and ttl_after <= 0:
            return False  # over-duplicated: not worth another transmission
        return True

    def on_transmitted(self, sb: StoredBundle, peer: Node, now: float) -> None:
        super().on_transmitted(sb, peer, now)  # ec += 1
        self._apply_ageing(sb, now)

    def on_copy_received(
        self, sb: StoredBundle, now: float, sender_copy: StoredBundle | None = None
    ) -> None:
        self._apply_ageing(sb, now)


@dataclass(frozen=True)
class ECTTLConfig:
    """Factory for :class:`ECTTLEpidemic` (Algorithm 2 defaults).

    Attributes:
        ec_threshold: Transmissions before ageing starts (paper: 8).
        ttl_base: TTL granted when the threshold is first exceeded
            (paper: 300 s).
        ttl_step: TTL reduction per additional transmission (paper: 100 s).
        min_ec_evict: Minimum EC a stored copy needs before it may be
            evicted on buffer pressure (the enhancement's "minimum EC value
            before nodes are allowed to delete a bundle"; 1 = a copy must
            have been forwarded at least once).
    """

    ec_threshold: int = 8
    ttl_base: float = 300.0
    ttl_step: float = 100.0
    min_ec_evict: int = 1
    protocol_name = "ec_ttl"

    def __post_init__(self) -> None:
        # an integral EC count: a fraction would shift every TTL off the
        # ttl_step grid
        require_int("ec_threshold", self.ec_threshold, 0)
        # written as not (valid) so NaN fails too
        if not self.ttl_base > 0:
            raise ValueError(f"ttl_base must be positive, got {self.ttl_base!r}")
        if not self.ttl_step >= 0:
            raise ValueError(f"ttl_step must be >= 0, got {self.ttl_step!r}")
        require_int("min_ec_evict", self.min_ec_evict, 0)

    @property
    def label(self) -> str:
        return f"Epidemic with EC+TTL (thr={self.ec_threshold})"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> ECTTLEpidemic:
        return ECTTLEpidemic(
            node,
            sim,
            rng,
            ec_threshold=self.ec_threshold,
            ttl_base=self.ttl_base,
            ttl_step=self.ttl_step,
            min_ec_evict=self.min_ec_evict,
        )
