"""Extension protocols beyond the paper's four categories.

The paper's taxonomy (Section I) lists three DTN routing families:
epidemic, data-ferry, and *statistical*. These reference implementations
put the unified framework to the use the paper advertises — "an important
guide to future protocol designers":

* :class:`BinarySprayAndWait` (Spyropoulos et al.) — controlled
  replication: a bundle starts with L copy tokens; every transfer hands
  half of the sender's tokens to the receiver; one-token copies wait for
  the destination. Bounds total copies at L regardless of load.
* :class:`Prophet` (Lindgren et al.) — the statistical family: nodes
  maintain delivery predictabilities P(a, b), aged over time, boosted on
  encounters and propagated transitively; a bundle is only forwarded to
  peers more likely to meet its destination.

Both slot into the same sweeps/benches as the paper's protocols, so the
comparison the paper *didn't* run (flooding vs controlled replication vs
utility forwarding on identical inputs) is one `run_sweep` call away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bundle import StoredBundle
from repro.core.protocols.base import ControlMessage, Protocol
from repro.validation import require_int, require_real

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.node import Node
    from repro.core.protocols.base import SimulationServices

_TOKENS = "spray_tokens"
_GRANT = "spray_grant"


class BinarySprayAndWait(Protocol):
    """Controlled replication with binary token splitting."""

    name = "spray_wait"

    def __init__(self, node, sim, rng, *, initial_tokens: int) -> None:  # type: ignore[no-untyped-def]
        super().__init__(node, sim, rng)
        self.initial_tokens = initial_tokens

    def on_bundle_created(self, sb: StoredBundle, now: float) -> None:
        sb.meta[_TOKENS] = self.initial_tokens

    def should_offer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        if sb.bundle.destination == peer.id:
            return True  # the wait phase: direct delivery is always allowed
        return sb.meta.get(_TOKENS, 1) > 1

    def confirm_transfer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        # a concurrent contact may have spent the tokens mid-flight
        return self.should_offer(sb, peer, now)

    def on_transmitted(self, sb: StoredBundle, peer: Node, now: float) -> None:
        super().on_transmitted(sb, peer, now)
        if sb.bundle.destination == peer.id:
            return  # delivery consumes no tokens
        tokens = sb.meta.get(_TOKENS, 1)
        keep = math.ceil(tokens / 2)
        sb.meta[_TOKENS] = keep
        sb.meta[_GRANT] = tokens - keep

    def on_copy_received(
        self, sb: StoredBundle, now: float, sender_copy: StoredBundle | None = None
    ) -> None:
        grant = 1
        if sender_copy is not None:
            grant = sender_copy.meta.pop(_GRANT, 1)
        sb.meta[_TOKENS] = max(1, grant)


@dataclass(frozen=True)
class SprayAndWaitConfig:
    """Factory for :class:`BinarySprayAndWait`.

    Attributes:
        initial_tokens: L, the total copies a bundle may ever have
            (Spyropoulos et al. suggest L ≈ a fraction of N; default 6
            for the paper's 12-node settings).
    """

    initial_tokens: int = 6
    protocol_name = "spray_wait"

    def __post_init__(self) -> None:
        require_int("initial_tokens", self.initial_tokens, 1)

    @property
    def label(self) -> str:
        return f"Binary Spray-and-Wait (L={self.initial_tokens})"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> BinarySprayAndWait:
        return BinarySprayAndWait(node, sim, rng, initial_tokens=self.initial_tokens)


class Prophet(Protocol):
    """PRoPHET: probabilistic routing using history of encounters."""

    name = "prophet"

    def __init__(
        self,
        node,  # type: ignore[no-untyped-def]
        sim,
        rng,
        *,
        p_init: float,
        gamma: float,
        beta: float,
        age_unit: float,
    ) -> None:
        super().__init__(node, sim, rng)
        self.p_init = p_init
        self.gamma = gamma
        self.beta = beta
        self.age_unit = age_unit
        self._p: dict[int, float] = {}
        self._last_aged = 0.0
        self._peer_tables: dict[int, dict[int, float]] = {}

    # ------------------------------------------------------------ estimator

    def predictability(self, node_id: int) -> float:
        """Current P(self, node_id)."""
        return self._p.get(node_id, 0.0)

    def _age(self, now: float) -> None:
        elapsed = now - self._last_aged
        if elapsed <= 0:
            return
        factor = self.gamma ** (elapsed / self.age_unit)
        for key in list(self._p):
            self._p[key] *= factor
            if self._p[key] < 1e-6:
                del self._p[key]
        self._last_aged = now

    def on_encounter_started(self, peer: Node, now: float) -> None:
        self._age(now)
        prev = self._p.get(peer.id, 0.0)
        self._p[peer.id] = prev + (1.0 - prev) * self.p_init

    # ---------------------------------------------------------- control plane

    def control_payload(self, now: float) -> ControlMessage:
        self._age(now)
        return ControlMessage(sender=self.node.id, extras={"prophet_p": dict(self._p)})

    def receive_control(self, msg: ControlMessage, now: float) -> None:
        peer_p = msg.extras.get("prophet_p", {})
        if not isinstance(peer_p, dict):
            return
        self._peer_tables[msg.sender] = dict(peer_p)
        # transitivity: P(a,c) >= P(a,b) * P(b,c) * beta
        p_ab = self._p.get(msg.sender, 0.0)
        for dest, p_bc in peer_p.items():
            if dest == self.node.id:
                continue
            candidate = p_ab * float(p_bc) * self.beta
            if candidate > self._p.get(dest, 0.0):
                self._p[dest] = candidate

    # ------------------------------------------------------------- forwarding

    def should_offer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        dest = sb.bundle.destination
        if dest == peer.id:
            return True
        peer_table = self._peer_tables.get(peer.id, {})
        return float(peer_table.get(dest, 0.0)) > self.predictability(dest)


@dataclass(frozen=True)
class ProphetConfig:
    """Factory for :class:`Prophet` (Lindgren et al. defaults).

    Attributes:
        p_init: Encounter boost (0.75 in the PRoPHET draft).
        gamma: Ageing constant per ``age_unit`` (0.98).
        beta: Transitivity damping (0.25).
        age_unit: Seconds per ageing step; DTN time scales call for
            minutes, not the draft's seconds.
    """

    p_init: float = 0.75
    gamma: float = 0.98
    beta: float = 0.25
    age_unit: float = 60.0
    protocol_name = "prophet"

    def __post_init__(self) -> None:
        for label, v in (("p_init", self.p_init), ("gamma", self.gamma), ("beta", self.beta)):
            require_real(label, v)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{label} must be in (0, 1], got {v}")
        require_real("age_unit", self.age_unit)
        if not self.age_unit > 0:  # also rejects NaN
            raise ValueError(f"age_unit must be positive, got {self.age_unit!r}")

    @property
    def label(self) -> str:
        return f"PRoPHET (Pinit={self.p_init:g})"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> Prophet:
        return Prophet(
            node,
            sim,
            rng,
            p_init=self.p_init,
            gamma=self.gamma,
            beta=self.beta,
            age_unit=self.age_unit,
        )
