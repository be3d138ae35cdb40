"""Cross-protocol invariants, checked property-based over random scenarios.

These are the safety net of the whole simulator: for cells drawn by the
ladder's scenario generator (:mod:`tests.strategies`), run on whichever
tier ``kernel="auto"`` picks, the physical invariants of the system must
hold — no buffer over-capacity, no negative copies, delivery bookkeeping
consistent, expired copies gone, determinism in the seed.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bundle import BundleId
from repro.faults import FaultSpec
from tests.helpers import copy_count
from tests.strategies import cells, fault_specs, serial_traces

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def assert_invariants(cell, sim, result) -> None:
    offered = sum(f.num_bundles for f in cell.flows)
    # delivery bookkeeping survives crashes, wipes and severed links
    assert 0.0 <= result.delivery_ratio <= 1.0
    assert result.delivered == len(sim.metrics.deliveries) <= offered
    assert result.success == (result.delivered == offered)
    assert (result.delay is None) == (not result.success)
    if result.delay is not None:
        assert 0.0 <= result.delay <= cell.trace.horizon
    # delivered stays delivered: every counted delivery is terminal
    delivered = set().union(*(sim.nodes[f.destination].delivered for f in cell.flows))
    assert set(sim.metrics.deliveries) == delivered
    # copy conservation: every copy is live, delivered, or accounted as
    # removed — never duplicated, never negative
    for node in sim.nodes:
        assert len(node.relay) <= cell.config.capacity_for(node.id)
        # a copy whose deadline passed before the run ended has expired
        # (deadlines on the stop time are the halt-vs-expiry tie)
        for sb in node.relay.entries_view().values():
            assert sb.expiry >= result.end_time
    for flow in cell.flows:
        dest = sim.nodes[flow.destination]
        for seq in range(1, flow.num_bundles + 1):
            bid = BundleId(flow.flow_id, seq)
            live = sum(1 for n in sim.nodes if n.get_copy(bid) is not None)
            assert copy_count(sim.metrics, bid) == live + (bid in dest.delivered)
            assert dest.get_copy(bid) is None or bid not in dest.delivered
    # metric ranges
    assert 0.0 <= result.buffer_occupancy <= 1.0 + 1e-9
    assert 0.0 <= result.duplication_rate <= 1.0 + 1e-9
    assert result.transmissions >= result.delivered
    assert result.end_time <= cell.trace.horizon + 1e-9


class TestSystemInvariants:
    @settings(max_examples=60, **SETTINGS)
    @given(cell=cells(faults=st.none()))
    def test_invariants_hold(self, cell):
        sim = cell.simulation()
        assert_invariants(cell, sim, sim.run())

    @settings(max_examples=20, **SETTINGS)
    @given(cell=cells(faults=st.none()))
    def test_deterministic_in_seed(self, cell):
        assert repr(cell.simulation().run()) == repr(cell.simulation().run())

    @settings(max_examples=25, **SETTINGS)
    @given(
        cell=cells(
            ("pure",),
            faults=st.none(),
            policies=("reject",),
            traces=serial_traces(),
            # more slots than the generator ever offers bundles (3 × 5)
            capacities=st.just(64),
        )
    )
    def test_immunity_never_hurts_delivery_vs_pure(self, cell):
        """Purging only removes copies of *delivered* bundles, so immunity
        delivers at least as much as pure epidemic on identical inputs —
        provided every buffer holds all offered bundles and no node is in
        two contacts at once. Checked on the sweep-all path and on the path
        ``auto`` picks (the skip path).

        Neither precondition can go. The ROADMAP's 5-node counterexample
        (a ``poisson`` trace: beta 2e-4, 15,000 s, overlapping 250 s
        contacts, buffers of 6, 10 bundles in 3 flows) delivers 10 on pure
        and 9 on immunity, because a purge changes which copies travel
        where. Under buffer pressure the slot it frees admits a copy a full
        buffer would refuse; with overlapping contacts it changes what each
        concurrent session carries, and a session that went idle is not
        re-awakened by a copy another contact brings in. Either way a
        contact's budget can serve another transfer than on the pure run,
        and a delivery is lost. Both kinds occur on such traces: some fail
        only with small buffers, others with 64-slot buffers too.
        """
        immunity = dataclasses.replace(cell, protocol=("immunity", {}))
        for kernel in ("event", "auto"):
            pure_ratio = cell.simulation(kernel=kernel).run().delivery_ratio
            immune_ratio = immunity.simulation(kernel=kernel).run().delivery_ratio
            assert immune_ratio >= pure_ratio - 1e-12


class TestFaultInvariants:
    """The disruption model must not break the physics: copies stay
    conserved, delivered stays delivered, and a fault spec that injects
    nothing must be invisible down to the last bit."""

    @settings(max_examples=50, **SETTINGS)
    @given(cell=cells(faults=fault_specs(trivial=False)))
    def test_invariants_hold_under_random_churn(self, cell):
        sim = cell.simulation()
        result = sim.run()
        assert_invariants(cell, sim, result)
        # churn counters are coherent
        churn = result.churn
        assert churn["recoveries"] <= churn["crashes"]
        assert churn["downtime"] >= 0.0
        assert result.removals["crashed"] >= 0
        if not cell.config.faults.wipes_knowledge:
            # re-infection is only possible after a knowledge wipe
            assert churn["reinfections"] == 0

    @settings(max_examples=20, **SETTINGS)
    @given(cell=cells(faults=fault_specs(trivial=False)))
    def test_faulted_runs_deterministic(self, cell):
        assert repr(cell.simulation().run()) == repr(cell.simulation().run())

    @settings(max_examples=30, **SETTINGS)
    @given(cell=cells(faults=st.none()))
    def test_zero_fault_spec_is_bit_identical_to_no_faults(self, cell):
        """Acceptance: an all-zero FaultSpec must not perturb one bit of
        any run — same RunResult, same serialised record."""
        plain = cell.simulation().run()
        zeroed = cell.simulation(faults=FaultSpec()).run()
        assert plain == zeroed
        assert plain.to_dict() == zeroed.to_dict()
