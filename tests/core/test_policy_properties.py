"""Property-based invariants for the buffer-contention subsystem.

For random mini-scenarios under *every* drop policy (and heterogeneous
capacities), the physical bookkeeping must balance: no leaked or negative
copies, fill fractions in [0, 1], and every removal accounted to exactly
one cause (drops + expiries + purges + ageing — nothing lands in "other").
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bundle import BundleId
from repro.core.policies import drop_policy_names
from repro.core.protocols import make_protocol_config
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import Flow
from repro.mobility.contact import Contact, ContactTrace

POLICY_STRATEGY = st.sampled_from(drop_policy_names())

#: Protocols that exercise the node-policy delegation path plus the two
#: that bypass it with an intrinsic rule (ec / ec_ttl).
PROTOCOL_STRATEGY = st.sampled_from(
    [
        ("pure", {}),
        ("ttl", {"ttl": 400.0}),
        ("pq", {"p": 1.0, "q": 1.0, "anti_packets": True}),
        ("immunity", {}),
        ("ec", {}),
        ("ec_ttl", {"ec_threshold": 2, "min_ec_evict": 1}),
    ]
)


@st.composite
def contention_scenario(draw):
    """A random mini trace with tight, possibly heterogeneous buffers."""
    num_nodes = draw(st.integers(3, 6))
    n_contacts = draw(st.integers(2, 25))
    contacts = []
    t = 0.0
    for _ in range(n_contacts):
        t += draw(st.floats(10.0, 1_500.0))
        dur = draw(st.floats(50.0, 650.0))
        a = draw(st.integers(0, num_nodes - 1))
        b = draw(st.integers(0, num_nodes - 1).filter(lambda x, a=a: x != a))
        contacts.append(Contact(start=t, end=t + dur, a=a, b=b))
        t += dur
    trace = ContactTrace(contacts, num_nodes, horizon=t + 5_000.0)
    source = draw(st.integers(0, num_nodes - 1))
    dest = draw(st.integers(0, num_nodes - 1).filter(lambda x: x != source))
    load = draw(st.integers(2, 12))
    if draw(st.booleans()):
        capacity = draw(st.integers(1, 4))
    else:
        capacity = tuple(
            draw(st.integers(1, 4)) for _ in range(num_nodes)
        )
    return trace, source, dest, load, capacity


class TestPolicyInvariants:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=contention_scenario(),
        proto=PROTOCOL_STRATEGY,
        policy=POLICY_STRATEGY,
        seed=st.integers(0, 3),
    )
    def test_conservation_and_occupancy(self, scenario, proto, policy, seed):
        trace, source, dest, load, capacity = scenario
        name, kwargs = proto
        flows = [Flow(flow_id=0, source=source, destination=dest, num_bundles=load)]
        sim = Simulation(
            trace,
            make_protocol_config(name, **kwargs),
            flows,
            config=SimulationConfig(
                buffer_capacity=capacity, drop_policy=policy, record_occupancy=True
            ),
            seed=seed,
        )
        result = sim.run()

        # --- occupancy invariants: every buffer within its own capacity
        for node in sim.nodes:
            assert len(node.relay) <= node.relay.capacity
            assert 0.0 <= node.relay.fill_fraction <= 1.0
        assert 0.0 <= result.buffer_occupancy <= 1.0 + 1e-9
        assert result.peak_occupancy >= 0.0
        assert result.buffer_occupancy <= result.peak_occupancy + 1e-9
        # Table-storing protocols may exceed nominal capacity with stored
        # control state (the paper's shared-storage model); bundle-only
        # protocols are hard-bounded by the relay capacity.
        if name in ("pure", "ttl", "ec", "ec_ttl"):
            assert result.peak_occupancy <= 1.0 + 1e-9
        for t, fill in sim.metrics.occupancy_series:
            assert 0.0 <= fill
            assert fill <= result.peak_occupancy + 1e-9
            assert 0.0 <= t <= result.end_time + 1e-9

        # --- copy conservation: the metric's copy count equals the live
        # copies actually held plus the destination's consumed copy
        dest_node = sim.nodes[dest]
        for seq in range(1, load + 1):
            bid = BundleId(0, seq)
            live = sum(1 for n in sim.nodes if n.get_copy(bid) is not None)
            expected = live + (1 if bid in dest_node.delivered else 0)
            assert sim.metrics.copy_count(bid) == expected

        # --- removal accounting: every removal has exactly one cause,
        # and every buffer-pressure eviction is charged to one policy
        removals = sim.metrics.removals
        assert removals.other == 0
        assert removals.total == (
            removals.evicted + removals.expired + removals.immunized + removals.ec_aged_out
        )
        assert sum(result.drops.values()) == removals.evicted
        assert sum(n.counters.evictions for n in sim.nodes) == removals.evicted
        assert sum(n.counters.expiries for n in sim.nodes) == removals.expired
        assert sum(n.counters.immunized_purges for n in sim.nodes) == removals.immunized
        # drop attribution: delegation path charges the configured policy,
        # EC's intrinsic rule charges max-ec; nothing else may appear
        assert set(result.drops) <= {policy, "max-ec"}
        if policy == "reject" and name not in ("ec", "ec_ttl"):
            assert result.drops == {}

        # --- received copies balance: every accepted relay copy is either
        # still buffered or was removed for a counted reason
        received = sum(n.counters.bundles_received for n in sim.nodes)
        buffered = sum(len(n.relay) for n in sim.nodes)
        origin_removed = load - sum(len(n.origin) for n in sim.nodes)
        # removals span both stores; relay removals = total - origin removals
        assert received == buffered + (removals.total - origin_removed)
