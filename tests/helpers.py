"""Shared test utilities: micro-traces, a fake services object, run helpers.

Most protocol behaviour is asserted through *real* simulations on tiny
hand-built contact traces (so the tests exercise the same code paths as the
experiments); :class:`FakeSim` exists for the handful of protocol unit
tests that need to poke a hook in isolation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from repro.core.bundle import NO_EXPIRY, Bundle, BundleId, StoredBundle
from repro.core.metrics import MetricsCollector, RemovalCounters
from repro.core.node import Node
from repro.core.policies import make_drop_policy
from repro.core.protocols.registry import ProtocolConfig, make_protocol_config
from repro.core.results import RunResult
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import Flow
from repro.mobility.contact import ContactTrace


def micro_trace(
    rows: list[tuple[float, float, int, int]],
    num_nodes: int,
    *,
    horizon: float | None = None,
    name: str = "micro",
) -> ContactTrace:
    """Build a trace from (start, end, a, b) rows."""
    return ContactTrace.from_tuples(rows, num_nodes, horizon=horizon, name=name)


def run_micro(
    protocol: str | ProtocolConfig,
    rows: list[tuple[float, float, int, int]],
    num_nodes: int,
    *,
    source: int = 0,
    destination: int | None = None,
    load: int = 1,
    horizon: float | None = None,
    seed: int = 0,
    sim_config: SimulationConfig | None = None,
    protocol_kwargs: dict | None = None,
) -> tuple[Simulation, RunResult]:
    """Run one simulation on a hand-built trace and return (sim, result)."""
    if isinstance(protocol, str):
        protocol = make_protocol_config(protocol, **(protocol_kwargs or {}))
    trace = micro_trace(rows, num_nodes, horizon=horizon)
    dest = destination if destination is not None else num_nodes - 1
    flows = [Flow(flow_id=0, source=source, destination=dest, num_bundles=load)]
    sim = Simulation(trace, protocol, flows, config=sim_config, seed=seed)
    return sim, sim.run()


@dataclass
class RemovalRecord:
    node_id: int
    bid: BundleId
    reason: str
    at: float


class FakeSim:
    """Minimal SimulationServices stub for protocol unit tests."""

    def __init__(self) -> None:
        self._now = 0.0
        self.removals: list[RemovalRecord] = []
        self.evictions: list[tuple[int, BundleId, str]] = []
        self.expiries: dict[tuple[int, BundleId], float] = {}
        self.control_units: list[tuple[int, str, int]] = []
        self.control_storage: dict[int, float] = {}

    @property
    def now(self) -> float:
        return self._now

    def advance(self, t: float) -> None:
        self._now = t

    def remove_copy(self, node: Node, bid: BundleId, reason: str) -> None:
        node.remove_copy(bid)
        self.removals.append(RemovalRecord(node.id, bid, reason, self._now))

    def remove_copies(self, node: Node, bids: list[BundleId], reason: str) -> None:
        for bid in bids:
            self.remove_copy(node, bid, reason)

    def evict_copy(self, node: Node, bid: BundleId, policy: str) -> None:
        node.counters.evictions += 1
        self.evictions.append((node.id, bid, policy))
        self.remove_copy(node, bid, reason="evicted")

    def set_expiry(self, node: Node, sb: StoredBundle, expiry: float) -> None:
        sb.expiry = expiry
        if expiry is not NO_EXPIRY:
            self.expiries[(node.id, sb.bid)] = expiry

    def count_control_units(self, node: Node, kind: str, units: int) -> None:
        self.control_units.append((node.id, kind, units))

    def set_control_storage(self, node: Node, slots: float) -> None:
        self.control_storage[node.id] = slots


def make_node(
    node_id: int = 0,
    *,
    capacity: int = 10,
    protocol: str = "pure",
    sim: FakeSim | None = None,
    seed: int = 0,
    drop_policy: str | None = None,
    **protocol_kwargs,
) -> tuple[Node, FakeSim]:
    """A node with a bound protocol over a :class:`FakeSim`."""
    sim = sim or FakeSim()
    policy = (
        make_drop_policy(drop_policy, rng=np.random.default_rng(seed))
        if drop_policy is not None
        else None
    )
    node = Node(node_id, capacity, drop_policy=policy)
    cfg = make_protocol_config(protocol, **protocol_kwargs)
    node.protocol = cfg.build(node, sim, np.random.default_rng(seed))
    return node, sim


def bundle(
    seq: int = 1, *, flow: int = 0, source: int = 0, destination: int = 1
) -> Bundle:
    """A test bundle."""
    return Bundle(
        bid=BundleId(flow=flow, seq=seq),
        source=source,
        destination=destination,
        created_at=0.0,
    )


def stored(
    seq: int = 1,
    *,
    flow: int = 0,
    source: int = 0,
    destination: int = 1,
    stored_at: float = 0.0,
    ec: int = 0,
    is_origin: bool = False,
) -> StoredBundle:
    """A test stored-copy."""
    return StoredBundle(
        bundle=bundle(seq, flow=flow, source=source, destination=destination),
        stored_at=stored_at,
        ec=ec,
        is_origin=is_origin,
    )


def copy_count(metrics: MetricsCollector, bid: BundleId) -> int:
    """The number of nodes the duplication metric counts as holding ``bid``."""
    track = metrics._copies.get(bid)
    return track.count if track is not None else 0


def removal_total(removals: RemovalCounters) -> int:
    """Copies removed from buffers, whatever the reason."""
    return sum(astuple(removals))


def heavy_tail_index(values: list[float]) -> float:
    """Crude tail-weight indicator: p90 / median.

    Exponential samples give ≈ 3.3; heavy-tailed (log-normal σ≳1) samples
    give substantially more.
    """
    if not values:
        return math.nan
    arr = np.asarray(values, dtype=float)
    med = float(np.median(arr))
    if med <= 0:
        return math.inf
    return float(np.percentile(arr, 90)) / med


#: A simple 4-node relay chain: 0 meets 1, then 1 meets 2, then 2 meets 3.
CHAIN_ROWS: list[tuple[float, float, int, int]] = [
    (100.0, 350.0, 0, 1),
    (1_000.0, 1_250.0, 1, 2),
    (2_000.0, 2_250.0, 2, 3),
]
