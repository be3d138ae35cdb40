"""The buffer occupancy / delivery reliability tradeoff study.

The paper fixes buffer management (10 slots, refuse-when-full) and sweeps
load; the tradeoff literature (Chen et al., arXiv:1601.06345) instead asks
how *capacity* and *queue policy* trade occupancy against delivery. This
study sweeps the grid

    capacity × drop policy × protocol × load × replication

on one shared mobility input and reports per-cell sweep means (delivery
ratio, mean/peak occupancy, drops). All cells across the whole grid are
flattened into one executor submission, so a
:class:`~repro.core.executors.ParallelExecutor` fans the entire study out
at once.

The ``reject`` policy column at the paper's capacity (10) is, by
construction, the exact seed scenario: every cell's randomness derives
from (seed, protocol, load, rep) and ``reject`` is behaviourally identical
to the historical refuse-when-full rule — the regression tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

from repro.core.executors import Cell, Executor, SerialExecutor
from repro.core.results import SweepResult
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, build_cells
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
class TradeoffConfig:
    """The tradeoff study's grid.

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
        # Validate every (capacity, policy) combination up front; a
        # fractional or bool capacity fails here with the field's name.
        for capacity in caps:
            for policy in self.policies:
                SimulationConfig(
                    buffer_capacity=capacity,
                    bundle_tx_time=self.bundle_tx_time,
                    drop_policy=policy,
                )


@dataclass
class TradeoffStudy:
    """All runs of a tradeoff study, keyed by (capacity label, policy)."""

    config: TradeoffConfig
    #: (capacity label, policy) → that configuration's SweepResult
    grid: dict[tuple[str, str], SweepResult] = field(default_factory=dict)

    @property
    def capacity_labels(self) -> list[str]:
        return [capacity_label(c) for c in self.config.capacities]

    @property
    def policies(self) -> list[str]:
        return list(self.config.policies)

    def sweep(self, capacity: str | int | tuple[int, ...], policy: str) -> SweepResult:
        """The SweepResult of one (capacity, policy) configuration."""
        key = capacity if isinstance(capacity, str) else capacity_label(capacity)
        return self.grid[(key, policy)]

    def cell_means(
        self, capacity: str | int | tuple[int, ...], policy: str
    ) -> dict[str, Mapping[str, float]]:
        """Per-protocol whole-sweep means of one grid cell."""
        sweep = self.sweep(capacity, policy)
        return {label: sweep.protocol_means(label) for label in sweep.protocols()}


def run_tradeoff_study(
    config: TradeoffConfig | None = None,
    *,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
) -> TradeoffStudy:
    """Execute the capacity × policy × protocol grid.

    The mobility input is built once and shared by every cell (the paper's
    shared-trace convention), and the whole grid goes to the executor as a
    single flat cell list — parallel backends see maximum width.
    """
    config = config or TradeoffConfig()
    trace = config.mobility.build(seed=config.seed)
    protocol_configs = [p.build() for p in config.protocols]

    flat: list[Cell] = []
    spans: list[tuple[str, str, int]] = []  # (capacity label, policy, #cells)
    for capacity in config.capacities:
        for policy in config.policies:
            sweep_cfg = SweepConfig(
                loads=config.loads,
                replications=config.replications,
                master_seed=config.seed,
                shared_trace=True,
                sim=SimulationConfig(
                    buffer_capacity=capacity,
                    bundle_tx_time=config.bundle_tx_time,
                    drop_policy=policy,
                ),
            )
            cells = build_cells(trace, protocol_configs, sweep_cfg)
            spans.append((capacity_label(capacity), policy, len(cells)))
            flat.extend(cells)

    hook = None
    if progress is not None:
        report = progress

        def hook(done: int, total: int, cell: Cell) -> None:
            report(
                f"[{done}/{total}] {cell.protocol.label}: "
                f"capacity={capacity_label(cell.sweep.sim.buffer_capacity)} "
                f"policy={cell.sweep.sim.drop_policy} "
                f"load={cell.load} rep={cell.rep} done"
            )

    backend = executor or SerialExecutor()
    results = backend.run(flat, progress=hook)

    study = TradeoffStudy(config=config)
    offset = 0
    for cap_label, policy, count in spans:
        sweep = SweepResult()
        sweep.runs.extend(results[offset : offset + count])
        study.grid[(cap_label, policy)] = sweep
        offset += count
    return study


__all__ = [
    "DEFAULT_CAPACITIES",
    "DEFAULT_POLICIES",
    "DEFAULT_PROTOCOLS",
    "TradeoffConfig",
    "TradeoffStudy",
    "capacity_label",
    "run_tradeoff_study",
]
