"""The knowledge subsystem and degenerate-encounter batching.

Unit behaviour of the stores (snapshot caching, merge semantics,
domination) and the trace-layer classification of degenerate contacts.
The batched schedules themselves are checked against the per-event
reference schedule by the differential ladder (``tests/test_ladder.py``).
"""

from __future__ import annotations

from repro.core.bundle import BundleId
from repro.core.knowledge import CumulativeKnowledgeStore, KnowledgeStore
from repro.core.protocols.base import Protocol
from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import Flow
from repro.mobility.contact import zero_transfer_mask
from tests.helpers import make_node, micro_trace
from tests.oracles.reference_sim import ReferenceSimulation


def bid(seq: int, flow: int = 0) -> BundleId:
    return BundleId(flow=flow, seq=seq)


class TestKnowledgeStore:
    def test_snapshot_cached_until_a_mutation(self):
        store = KnowledgeStore()
        store.add(bid(1))
        snap = store.snapshot
        assert snap == frozenset({bid(1)})
        assert store.snapshot is snap  # cached
        store.add(bid(2))
        assert store.snapshot == frozenset({bid(1), bid(2)})

    def test_merge_returns_only_fresh_ids(self):
        store = KnowledgeStore()
        store.merge({bid(1), bid(2)})
        fresh = store.merge({bid(2), bid(3)})
        assert fresh == [bid(3)]
        assert store.merge({bid(1)}) == []  # subset fast path
        assert len(store) == 3
        assert bid(3) in store


class TestCumulativeKnowledgeStore:
    def test_advance_only_on_domination(self):
        store = CumulativeKnowledgeStore()
        assert store.advance(0, 5)
        assert not store.advance(0, 3)  # dominated: no-op
        assert store.seq_for(0) == 5
        assert store.covers(bid(4)) and not store.covers(bid(6))


class TestClassFlags:
    def test_encounter_inert_families(self):
        for name, kwargs, inert in [
            ("pure", {}, True),
            ("ttl", {"ttl": 300.0}, True),
            ("ec", {}, True),
            ("pq", {"p": 0.5, "q": 0.5}, True),  # coins-only: no control
            ("pq", {"p": 1.0, "q": 1.0, "anti_packets": True}, False),
            ("immunity", {}, False),
            ("cumulative_immunity", {}, False),
            ("dynamic_ttl", {}, False),
            ("prophet", {}, False),
        ]:
            node, _ = make_node(0, protocol=name, **kwargs)
            assert type(node.protocol).encounter_inert is inert, name


#: (start, end, a, b) rows mixing degenerate (sub-tx) and carrying
#: contacts; knowledge spreads through the 50 s encounters too.
MIXED_ROWS: list[tuple[float, float, int, int]] = [
    (0.0, 350.0, 0, 1),        # 3 slots: source hands off
    (400.0, 450.0, 1, 2),      # degenerate
    (500.0, 550.0, 0, 3),      # degenerate
    (600.0, 850.0, 1, 3),      # 2 slots
    (900.0, 950.0, 2, 3),      # degenerate (same-pair repeats below)
    (1_000.0, 1_050.0, 2, 3),  # degenerate, nothing new since the last
    (1_100.0, 1_350.0, 2, 3),  # 2 slots: delivery to 3 possible
    (1_400.0, 1_450.0, 0, 2),  # degenerate after possible delivery
    (1_500.0, 1_550.0, 1, 2),  # degenerate
    (2_000.0, 2_350.0, 0, 3),  # carrying; may end the run
    (2_400.0, 2_450.0, 0, 1),  # degenerate at/after the halt boundary
    (2_500.0, 2_560.0, 1, 3),  # degenerate beyond the halt
]


class TestDegenerateBatchingEquivalence:
    def test_heterogeneous_tx_times_classify_per_pair(self):
        # pair (0,1): fast radios, 150 s contact carries a bundle; the
        # same duration between (1,2) is degenerate (slow radio on 2)
        rows = [
            (0.0, 150.0, 0, 1),
            (200.0, 350.0, 1, 2),
            (400.0, 900.0, 1, 2),  # long enough for the slow link
        ]
        trace = micro_trace(rows, 3, horizon=2_000.0)
        config = SimulationConfig(bundle_tx_time=(100.0, 100.0, 400.0), kernel="event")
        mask = zero_transfer_mask(trace, config.bundle_tx_time)
        assert mask.tolist() == [False, True, False]
        flows = [Flow(flow_id=0, source=0, destination=2, num_bundles=1)]
        results = [
            cls(trace, make_protocol_config("pure"), flows, config=config, seed=0).run()
            for cls in (ReferenceSimulation, Simulation)
        ]
        assert results[0] == results[1]
        assert results[0].delivered == 1


class TestContactArrays:
    def test_arrays_match_contacts(self):
        trace = micro_trace(MIXED_ROWS, 4, horizon=5_000.0)
        starts, ends, a, b = trace.contact_arrays()
        assert starts.tolist() == [c.start for c in trace]
        assert ends.tolist() == [c.end for c in trace]
        assert a.tolist() == [c.a for c in trace]
        assert b.tolist() == [c.b for c in trace]
        assert trace.contact_arrays() is trace.contact_arrays()  # cached

    def test_zero_transfer_mask_matches_scalar_rule(self):
        trace = micro_trace(MIXED_ROWS, 4, horizon=5_000.0)
        mask = zero_transfer_mask(trace, 100.0)
        expected = [int(c.duration / 100.0) == 0 for c in trace]
        assert mask.tolist() == expected


class TestProtocolDelegation:
    def test_antipacket_protocol_owns_a_store(self):
        node, _ = make_node(1, protocol="immunity")
        assert isinstance(node.protocol.knowledge, KnowledgeStore)
        node.protocol.learn_delivered({bid(1), bid(2)}, now=0.0)
        assert node.protocol.knowledge.snapshot == frozenset({bid(1), bid(2)})
        assert node.protocol.knows_delivered(bid(1))

    def test_base_protocol_has_no_store(self):
        node, _ = make_node(0, protocol="pure")
        assert node.protocol.knowledge is None
        assert Protocol.encounter_inert
