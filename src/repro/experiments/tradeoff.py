"""The buffer occupancy / delivery reliability tradeoff study.

The paper fixes buffer management (10 slots, refuse-when-full) and sweeps
load; the tradeoff literature (Chen et al., arXiv:1601.06345) instead asks
how *capacity* and *queue policy* trade occupancy against delivery. This
study sweeps the grid

    capacity × drop policy × protocol × load × replication

on one shared mobility input and reports per-cell sweep means (delivery
ratio, mean/peak occupancy, drops). :class:`TradeoffConfig` is a
:class:`~repro.experiments.matrix.MatrixConfig`: run it with
:func:`~repro.experiments.matrix.run_matrix_study` and render the result
with :func:`~repro.analysis.tables.render_tradeoff_table`.

The ``reject`` policy column at the paper's capacity (10) is, by
construction, the exact seed scenario: every cell's randomness derives
from (seed, protocol, load, rep) and ``reject`` is behaviourally identical
to the historical refuse-when-full rule — the regression tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulation import SimulationConfig
from repro.experiments.matrix import MatrixConfig
from repro.scenarios import MobilitySpec, ProtocolSpec

#: Capacity values swept by default: starved, the paper's 10, and roomy.
DEFAULT_CAPACITIES: tuple[int, ...] = (5, 10, 20)

#: Every registered policy, ``reject`` (the seed behaviour) first.
DEFAULT_POLICIES: tuple[str, ...] = (
    "reject",
    "drop-tail",
    "drop-oldest",
    "drop-youngest",
    "drop-random",
)

#: Protocols compared by default: the flooding baseline, the TTL variant
#: whose Figs 13-14 collapse is buffer-driven, and an anti-packet purger.
DEFAULT_PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec("pure"),
    ProtocolSpec("ttl", {"ttl": 300.0}),
    ProtocolSpec("pq", {"p": 1.0, "q": 1.0, "anti_packets": True}),
)


def capacity_label(capacity: int | tuple[int, ...]) -> str:
    """Row label for a capacity axis value (scalar or per-node)."""
    if isinstance(capacity, tuple):
        return "per-node[" + ",".join(str(c) for c in capacity) + "]"
    return str(capacity)


@dataclass(frozen=True)
class TradeoffConfig(MatrixConfig):
    """The tradeoff study's grid: capacity rows × drop-policy columns.

    Attributes:
        capacities: Buffer-capacity axis; each entry is a scalar or a
            per-node tuple (heterogeneous populations are first-class axis
            values).
        policies: Drop-policy axis (registered names).
        protocols: Protocols under comparison.
        mobility: Shared mobility input (the paper's campus trace by
            default).
        loads: Offered loads per cell.
        replications: Replications per (capacity, policy, protocol, load).
        seed: Master seed — cells reuse the sweep derivation, so a
            (protocol, load, rep) cell sees the same workload in every
            (capacity, policy) configuration.
        bundle_tx_time: Mechanism constant (scalar or per-node).
    """

    capacities: tuple[int | tuple[int, ...], ...] = DEFAULT_CAPACITIES
    policies: tuple[str, ...] = DEFAULT_POLICIES
    protocols: tuple[ProtocolSpec, ...] = DEFAULT_PROTOCOLS
    mobility: MobilitySpec = field(default_factory=lambda: MobilitySpec("campus"))
    loads: tuple[int, ...] = (10, 30, 50)
    replications: int = 3
    seed: int = 7
    bundle_tx_time: float | tuple[float, ...] = 100.0

    def __post_init__(self) -> None:
        if not self.capacities:
            raise ValueError("capacities must be non-empty")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if not self.protocols:
            raise ValueError("protocols must be non-empty")
        caps = tuple(
            tuple(c) if isinstance(c, (list, tuple)) else c for c in self.capacities
        )
        object.__setattr__(self, "capacities", caps)
        self.require_distinct_labels("capacities", "policies")
        # Validate every (capacity, policy) combination up front; a
        # fractional or bool capacity fails here with the field's name.
        for capacity in caps:
            for policy in self.policies:
                self.setting(capacity, policy)

    def axes(self) -> tuple[tuple[int | tuple[int, ...], ...], tuple[str, ...]]:
        return self.capacities, self.policies

    def row_label(self, capacity: int | tuple[int, ...]) -> str:
        return capacity_label(capacity)

    def setting(self, capacity: int | tuple[int, ...], policy: str) -> SimulationConfig:
        return SimulationConfig(
            buffer_capacity=capacity, bundle_tx_time=self.bundle_tx_time, drop_policy=policy
        )

    def describe(self, sim: SimulationConfig) -> str:
        return f"capacity={capacity_label(sim.buffer_capacity)} policy={sim.drop_policy}"


__all__ = [
    "DEFAULT_CAPACITIES",
    "DEFAULT_POLICIES",
    "DEFAULT_PROTOCOLS",
    "TradeoffConfig",
    "capacity_label",
]
