"""Drop-policy registry, victim selection, and end-to-end policy behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer import RelayStore
from repro.core.node import Node
from repro.core.policies import (
    DropPolicy,
    RejectPolicy,
    drop_policy_names,
    make_drop_policy,
    register_drop_policy,
)
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import Flow
from repro.mobility.contact import ContactTrace
from tests.helpers import bundle, make_node, stored


class TestRegistry:
    def test_builtin_names(self):
        assert drop_policy_names() == [
            "drop-oldest",
            "drop-random",
            "drop-tail",
            "drop-youngest",
            "reject",
        ]

    def test_make_unknown_policy(self):
        with pytest.raises(KeyError, match="drop-oldest"):
            make_drop_policy("bogus")

    def test_register_requires_name(self):
        class Nameless(DropPolicy):
            pass

        with pytest.raises(ValueError, match="must define a policy name"):
            register_drop_policy(Nameless)

    def test_register_rejects_duplicate(self):
        class FakeReject(DropPolicy):
            name = "reject"

        with pytest.raises(ValueError, match="already registered"):
            register_drop_policy(FakeReject)

    def test_register_is_idempotent_for_same_class(self):
        assert register_drop_policy(RejectPolicy) is RejectPolicy

    def test_simulation_config_validates_policy_name(self):
        with pytest.raises(ValueError, match="unknown drop policy"):
            SimulationConfig(drop_policy="bogus")


def _store_with(*entries) -> RelayStore:
    store = RelayStore(capacity=len(entries))
    for sb in entries:
        store.add(sb)
    return store


class TestVictimSelection:
    def test_reject_never_names_a_victim(self):
        policy = make_drop_policy("reject")
        store = _store_with(stored(1), stored(2))
        assert not policy.can_make_room(store, bundle(3))
        assert policy.select_victim(store, bundle(3), now=0.0) is None

    def test_drop_tail_evicts_most_recently_stored(self):
        policy = make_drop_policy("drop-tail")
        first, last = stored(1, stored_at=10.0), stored(2, stored_at=20.0)
        store = _store_with(first, last)
        assert policy.can_make_room(store, bundle(3))
        assert policy.select_victim(store, bundle(3), now=30.0) is last

    def test_drop_oldest_by_bundle_creation(self):
        policy = make_drop_policy("drop-oldest")
        old = stored(1)
        old.bundle = bundle(1)
        young = stored(2)
        # same flow, later creation
        from repro.core.bundle import Bundle, BundleId

        young.bundle = Bundle(
            bid=BundleId(flow=0, seq=2), source=0, destination=1, created_at=500.0
        )
        store = _store_with(old, young)
        assert policy.select_victim(store, bundle(3), now=600.0) is old

    def test_drop_youngest_by_bundle_creation(self):
        policy = make_drop_policy("drop-youngest")
        from repro.core.bundle import Bundle, BundleId

        old = stored(1)
        young = stored(2)
        young.bundle = Bundle(
            bid=BundleId(flow=0, seq=2), source=0, destination=1, created_at=500.0
        )
        store = _store_with(old, young)
        assert policy.select_victim(store, bundle(3), now=600.0) is young

    def test_drop_random_is_seeded_and_uniformish(self):
        entries = [stored(s) for s in range(1, 5)]
        picks = set()
        for seed in range(16):
            policy = make_drop_policy("drop-random", rng=np.random.default_rng(seed))
            store = _store_with(*entries)
            victim = policy.select_victim(store, bundle(9), now=0.0)
            picks.add(victim.bid.seq)
        assert len(picks) > 1  # not stuck on one slot
        # same seed -> same victim
        a = make_drop_policy("drop-random", rng=np.random.default_rng(3))
        b = make_drop_policy("drop-random", rng=np.random.default_rng(3))
        store = _store_with(*[stored(s) for s in range(1, 5)])
        assert a.select_victim(store, bundle(9), 0.0) is b.select_victim(
            store, bundle(9), 0.0
        )

    def test_drop_random_requires_rng(self):
        policy = make_drop_policy("drop-random")
        store = _store_with(stored(1))
        with pytest.raises(ValueError, match="seeded rng"):
            policy.select_victim(store, bundle(2), now=0.0)

    def test_empty_store_yields_no_victim(self):
        store = RelayStore(capacity=1)
        for name in drop_policy_names():
            policy = make_drop_policy(name, rng=np.random.default_rng(0))
            assert policy.select_victim(store, bundle(1), now=0.0) is None


class TestProtocolDelegation:
    """The base protocol consults the node's policy on buffer pressure."""

    def test_reject_refuses_when_full(self):
        node, _ = make_node(capacity=1)
        assert isinstance(node.drop_policy, RejectPolicy)
        node.protocol.accept(bundle(1, destination=5), ec=1, now=0.0)
        assert node.protocol.accept(bundle(2, destination=5), ec=1, now=1.0) is None
        assert not node.protocol.can_accept(bundle(2, destination=5), now=1.0)

    def test_eviction_policy_makes_room(self):
        node, sim = make_node(capacity=1, drop_policy="drop-oldest")
        node.protocol.accept(bundle(1, destination=5), ec=1, now=0.0)
        sb = node.protocol.accept(bundle(2, destination=5), ec=1, now=1.0)
        assert sb is not None and sb.bid.seq == 2
        assert node.counters.evictions == 1
        assert sim.evictions == [(0, bundle(1).bid, "drop-oldest")]
        assert node.protocol.can_accept(bundle(3, destination=5), now=2.0)

    def test_destination_always_accepts(self):
        node, _ = make_node(capacity=1)
        node.protocol.accept(bundle(1, destination=5), ec=1, now=0.0)
        assert node.protocol.can_accept(bundle(2, source=3, destination=0), now=1.0)


def _contention_run(policy: str, *, capacity=2, seed=0):
    """A relay chain where node 1's buffer is the bottleneck."""
    rows = [
        (0.0, 650.0, 0, 1),  # 6 transfer slots into node 1
        (5_000.0, 5_650.0, 1, 2),
        (10_000.0, 10_650.0, 1, 3),
    ]
    trace = ContactTrace.from_tuples(rows, 4, horizon=20_000.0)
    flows = [Flow(flow_id=0, source=0, destination=3, num_bundles=6)]
    from repro.core.protocols.registry import make_protocol_config

    sim = Simulation(
        trace,
        make_protocol_config("pure"),
        flows,
        config=SimulationConfig(
            buffer_capacity=capacity, drop_policy=policy, record_occupancy=True
        ),
        seed=seed,
    )
    return sim, sim.run()


class TestEndToEnd:
    def test_reject_matches_default_config(self):
        _, explicit = _contention_run("reject")
        rows = [
            (0.0, 650.0, 0, 1),
            (5_000.0, 5_650.0, 1, 2),
            (10_000.0, 10_650.0, 1, 3),
        ]
        trace = ContactTrace.from_tuples(rows, 4, horizon=20_000.0)
        flows = [Flow(flow_id=0, source=0, destination=3, num_bundles=6)]
        from repro.core.protocols.registry import make_protocol_config

        default = Simulation(
            trace,
            make_protocol_config("pure"),
            flows,
            # record_occupancy matches _contention_run's recording
            config=SimulationConfig(buffer_capacity=2, record_occupancy=True),
            seed=0,
        ).run()
        assert explicit == default
        assert explicit.drops == {}

    @pytest.mark.parametrize(
        "policy", ["drop-tail", "drop-oldest", "drop-youngest", "drop-random"]
    )
    def test_eviction_policies_record_drops(self, policy):
        sim, result = _contention_run(policy)
        assert result.drops.get(policy, 0) > 0
        assert result.removals["evicted"] == sum(result.drops.values())
        total_evictions = sum(n.counters.evictions for n in sim.nodes)
        assert total_evictions == result.removals["evicted"]

    def test_peak_occupancy_tracks_contention(self):
        _, result = _contention_run("reject")
        assert 0.0 < result.peak_occupancy <= 1.0
        # node 1 fills both its slots at some point: peak >= 2/8 slots
        assert result.peak_occupancy >= 2 / 8

    def test_occupancy_series_is_monotone_in_time(self):
        sim, _ = _contention_run("drop-oldest")
        times = [t for t, _ in sim.metrics.occupancy_series]
        assert times == sorted(times)
        fills = [f for _, f in sim.metrics.occupancy_series]
        assert all(0.0 <= f <= 1.0 for f in fills)
        assert sim.metrics.peak_occupancy == pytest.approx(max(fills))


class TestHeterogeneousConfig:
    def test_per_node_capacity_lengths_validated(self):
        cfg = SimulationConfig(buffer_capacity=(2, 3, 4))
        with pytest.raises(ValueError, match="3 entries"):
            cfg.validate_population(4)

    def test_capacity_and_tx_accessors(self):
        cfg = SimulationConfig(buffer_capacity=(2, 5), bundle_tx_time=(50.0, 200.0))
        assert cfg.capacity_for(0) == 2 and cfg.capacity_for(1) == 5
        assert cfg.capacities(2) == (2, 5)
        assert cfg.tx_time_for(0) == 50.0
        assert cfg.pair_tx_time(0, 1) == 200.0  # slower radio wins

    def test_scalar_accessors(self):
        cfg = SimulationConfig()
        assert cfg.capacity_for(7) == 10
        assert cfg.capacities(3) == (10, 10, 10)
        assert cfg.pair_tx_time(0, 1) == 100.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(buffer_capacity=(1, 0))
        with pytest.raises(ValueError):
            SimulationConfig(bundle_tx_time=(100.0, -1.0))
        with pytest.raises(ValueError):
            SimulationConfig(buffer_capacity=())

    def test_heterogeneous_simulation_runs(self):
        rows = [(0.0, 650.0, 0, 1), (5_000.0, 5_650.0, 1, 2)]
        trace = ContactTrace.from_tuples(rows, 3, horizon=10_000.0)
        flows = [Flow(flow_id=0, source=0, destination=2, num_bundles=4)]
        from repro.core.protocols.registry import make_protocol_config

        sim = Simulation(
            trace,
            make_protocol_config("pure"),
            flows,
            config=SimulationConfig(
                buffer_capacity=(1, 3, 1), bundle_tx_time=(100.0, 100.0, 325.0)
            ),
            seed=0,
        )
        result = sim.run()
        assert sim.nodes[0].relay.capacity == 1
        assert sim.nodes[1].relay.capacity == 3
        # link (1, 2) runs at 325 s/bundle: a 650 s contact moves 2 bundles
        assert result.delivered == 2

    def test_per_node_tx_time_budget(self):
        """The slower radio caps the contact budget."""
        rows = [(0.0, 650.0, 0, 1)]
        trace = ContactTrace.from_tuples(rows, 2, horizon=2_000.0)
        flows = [Flow(flow_id=0, source=0, destination=1, num_bundles=6)]
        from repro.core.protocols.registry import make_protocol_config

        fast = Simulation(
            trace,
            make_protocol_config("pure"),
            flows,
            config=SimulationConfig(bundle_tx_time=100.0),
            seed=0,
        ).run()
        slow = Simulation(
            trace,
            make_protocol_config("pure"),
            flows,
            config=SimulationConfig(bundle_tx_time=(100.0, 300.0)),
            seed=0,
        ).run()
        assert fast.delivered == 6
        assert slow.delivered == 2  # floor(650 / 300)

    def test_mismatched_population_raises_at_init(self):
        rows = [(0.0, 100.0, 0, 1)]
        trace = ContactTrace.from_tuples(rows, 2, horizon=1_000.0)
        flows = [Flow(flow_id=0, source=0, destination=1, num_bundles=1)]
        from repro.core.protocols.registry import make_protocol_config

        with pytest.raises(ValueError, match="entries"):
            Simulation(
                trace,
                make_protocol_config("pure"),
                flows,
                config=SimulationConfig(buffer_capacity=(1, 2, 3)),
                seed=0,
            )


class TestECKeepsItsOwnRule:
    def test_ec_drops_reported_as_max_ec(self):
        node, sim = make_node(capacity=1, protocol="ec", drop_policy="drop-oldest")
        sb = node.protocol.accept(bundle(1, destination=5), ec=3, now=0.0)
        assert sb is not None
        newer = node.protocol.accept(bundle(2, destination=5), ec=1, now=1.0)
        assert newer is not None
        assert sim.evictions == [(0, bundle(1).bid, "max-ec")]

    def test_node_default_policy_is_reject(self):
        node = Node(0, 4)
        assert isinstance(node.drop_policy, RejectPolicy)
