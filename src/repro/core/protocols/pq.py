"""P-Q epidemic routing (Matsuda & Takine 2008).

Probabilistic transmission on top of pure epidemic: at an encounter, a
bundle is offered with probability *P* when the offering node is the
bundle's *source* and with probability *Q* otherwise. The coin is flipped
once per (bundle, contact); a failed flip skips the bundle for the
remainder of that contact. With P = Q = 1 the behaviour degenerates to pure
epidemic, which the paper uses as its best-delay reference.

On anti-packets: Matsuda & Takine's protocol (and the paper's background
section) pairs the coins with anti-packet purging, but the paper's
*evaluation* explicitly observes that its P-Q "does not have any mechanism
to purge these bundles" once delivered (Section V-A, the >80% buffer
occupancy discussion) — i.e. the evaluated P-Q is coins-only. We therefore
default ``anti_packets=False`` to reproduce the figures, and keep the flag
for the protocol as originally published (:class:`PQAntiPacketEpidemic`).

The two variants sit on opposite sides of the knowledge layer:
coins-only P-Q is *encounter-inert* (no control state, so the sweep's
skip path settles its zero-transfer contacts in bulk), while the anti-packet
variant inherits the :class:`~repro.core.knowledge.KnowledgeStore` of the
substrate and swaps it at every contact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bundle import StoredBundle
from repro.core.protocols.antipacket import AntiPacketProtocol
from repro.core.protocols.base import Protocol
from repro.validation import require_bool, require_prob

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.node import Node
    from repro.core.protocols.base import SimulationServices


class _PQCoinMixin:
    """The P/Q transmission coin, shared by both P-Q variants."""

    p: float
    q: float

    def should_offer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        prob = self.p if sb.bundle.source == self.node.id else self.q  # type: ignore[attr-defined]
        if prob >= 1.0:
            return True
        if prob <= 0.0:
            return False
        return bool(self.rng.random() < prob)  # type: ignore[attr-defined]


class PQEpidemic(_PQCoinMixin, Protocol):
    """P-Q epidemic as the paper evaluates it: coins, no purging."""

    name = "pq"

    def __init__(self, node, sim, rng, *, p: float, q: float) -> None:  # type: ignore[no-untyped-def]
        super().__init__(node, sim, rng)
        self.p = p
        self.q = q


class PQAntiPacketEpidemic(_PQCoinMixin, AntiPacketProtocol):
    """P-Q epidemic as originally published: coins plus anti-packets."""

    name = "pq"
    control_kind = "anti_packet"

    def __init__(self, node, sim, rng, *, p: float, q: float) -> None:  # type: ignore[no-untyped-def]
        super().__init__(node, sim, rng)
        self.p = p
        self.q = q


@dataclass(frozen=True)
class PQEpidemicConfig:
    """Factory for P-Q epidemic.

    Attributes:
        p: Source transmission probability (paper sweeps 0.1, 0.5, 1).
        q: Relay transmission probability.
        anti_packets: Enable anti-packet purging (off in the paper's
            evaluation; see module docstring).
    """

    p: float = 1.0
    q: float = 1.0
    anti_packets: bool = False
    protocol_name = "pq"

    def __post_init__(self) -> None:
        require_prob("p", self.p)
        require_prob("q", self.q)
        # the flag picks the protocol class (and the execution tier), so a
        # truthy string such as "no" must not switch anti-packets on
        require_bool("anti_packets", self.anti_packets)

    @property
    def label(self) -> str:
        suffix = ", anti-packets" if self.anti_packets else ""
        return f"P-Q epidemic (P={self.p:g}, Q={self.q:g}{suffix})"

    def build(
        self, node: Node, sim: SimulationServices, rng: np.random.Generator
    ) -> Protocol:
        cls = PQAntiPacketEpidemic if self.anti_packets else PQEpidemic
        return cls(node, sim, rng, p=self.p, q=self.q)
