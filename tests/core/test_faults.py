"""The disruption model: FaultSpec, churn mechanics, link faults.

Behavioural tests run *real* simulations on hand-built micro-traces so
every assertion exercises the same code path the experiments use; the
scenarios are small enough that the expected outcome (who crashes, who
misses whom, what gets wiped) is checkable by hand.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.protocols import make_protocol_config
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import Flow
from repro.faults import STATE_LOSS_MODES, FaultSpec
from repro.mobility.contact import ContactTrace

from tests.helpers import micro_trace
from tests.oracles.churn_schedule import scheduled_outages


def run_faulted(
    protocol,
    rows,
    num_nodes,
    flows,
    *,
    faults,
    horizon=None,
    seed=1,
    fault_seed=None,
    record_occupancy=False,
    protocol_kwargs=None,
    kernel="auto",
):
    """One faulted run on a hand-built trace; returns (sim, result)."""
    if isinstance(protocol, str):
        protocol = make_protocol_config(protocol, **(protocol_kwargs or {}))
    trace = micro_trace(rows, num_nodes, horizon=horizon)
    cfg = SimulationConfig(faults=faults, record_occupancy=record_occupancy, kernel=kernel)
    sim = Simulation(
        trace, protocol, flows, config=cfg, seed=seed, fault_seed=fault_seed
    )
    return sim, sim.run()


# ------------------------------------------------------------------ FaultSpec


class TestFaultSpec:
    def test_default_is_trivial(self):
        spec = FaultSpec()
        assert spec.is_trivial
        assert not spec.has_churn
        assert not spec.has_link_faults
        assert not spec.wipes_buffer and not spec.wipes_knowledge

    def test_state_loss_alone_stays_trivial(self):
        # state_loss only matters when something can crash
        assert FaultSpec(state_loss="all").is_trivial

    def test_schedule_alone_is_churn(self):
        spec = FaultSpec(downtime_schedule=((0, 10.0, 20.0),), state_loss="all")
        assert spec.has_churn and not spec.is_trivial
        assert spec.wipes_buffer and spec.wipes_knowledge

    def test_wipe_flags_follow_mode(self):
        base = dict(churn_rate=1e-4, mean_downtime=100.0)
        assert not FaultSpec(**base, state_loss="none").wipes_buffer
        assert FaultSpec(**base, state_loss="buffer").wipes_buffer
        assert not FaultSpec(**base, state_loss="buffer").wipes_knowledge
        assert FaultSpec(**base, state_loss="knowledge").wipes_knowledge
        assert FaultSpec(**base, state_loss="all").wipes_buffer
        assert FaultSpec(**base, state_loss="all").wipes_knowledge

    def test_round_trip_via_json(self):
        spec = FaultSpec(
            churn_rate=2e-4,
            mean_downtime=1500.0,
            state_loss="buffer",
            downtime_schedule=((3, 10.0, 20.0), (0, 5.0, 7.5)),
            contact_drop_prob=0.05,
            interrupt_prob=0.1,
            transfer_failure_prob=0.02,
        )
        back = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec

    def test_schedule_normalised_sorted(self):
        spec = FaultSpec(downtime_schedule=[[3, 10, 20], [0, 5, 7.5]])
        assert spec.downtime_schedule == ((0, 5.0, 7.5), (3, 10.0, 20.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec key"):
            FaultSpec.from_dict({"churn_rate": 0.0, "crash_rate": 1.0})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"churn_rate": -1.0}, "churn_rate"),
            ({"churn_rate": 1e-3}, "mean_downtime"),  # churn needs downtime
            ({"contact_drop_prob": 1.5}, "contact_drop_prob"),
            ({"interrupt_prob": -0.1}, "interrupt_prob"),
            ({"transfer_failure_prob": 2.0}, "transfer_failure_prob"),
            ({"state_loss": "everything"}, "state_loss"),
            ({"downtime_schedule": ((0, 20.0, 10.0),)}, "downtime_schedule"),
            ({"downtime_schedule": ((-1, 10.0, 20.0),)}, "downtime_schedule"),
            ({"downtime_schedule": ((0, 10.0),)}, "downtime_schedule"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultSpec(**kwargs)

    def test_modes_catalogue(self):
        assert STATE_LOSS_MODES == ("none", "buffer", "knowledge", "all")

    def test_simulation_config_rejects_non_spec(self):
        with pytest.raises(ValueError, match="FaultSpec"):
            SimulationConfig(faults={"churn_rate": 0.1})

    def test_active_faults_normalises_trivial(self):
        assert SimulationConfig().active_faults is None
        assert SimulationConfig(faults=FaultSpec()).active_faults is None
        spec = FaultSpec(contact_drop_prob=0.5)
        assert SimulationConfig(faults=spec).active_faults == spec


# ------------------------------------------------------------- node churn

#: S=0 hands its bundle to relay C=1, C delivers to D=2, a short second
#: C↔D contact spreads the anti-packet back to C, then (after the crash
#: window 600–700) S meets C again. Node 3 is isolated so its flow keeps
#: the run alive past the crash.
REINFECTION_ROWS = [
    (10.0, 200.0, 0, 1),
    (300.0, 500.0, 1, 2),
    (550.0, 560.0, 1, 2),
    (800.0, 1000.0, 0, 1),
]
REINFECTION_FLOWS = [
    Flow(flow_id=0, source=0, destination=2, num_bundles=1),
    Flow(flow_id=1, source=3, destination=2, num_bundles=1),
]


class TestChurn:
    def test_down_node_misses_contact(self):
        # node 1 is down for the only contact: nothing is transferred
        sim, res = run_faulted(
            "pure",
            [(100.0, 300.0, 0, 1)],
            2,
            [Flow(flow_id=0, source=0, destination=1, num_bundles=1)],
            faults=FaultSpec(downtime_schedule=((1, 50.0, 400.0),)),
            horizon=500.0,
        )
        assert res.delivered == 0
        assert res.churn["missed_contacts"] == 1
        assert res.churn["crashes"] == 1 and res.churn["recoveries"] == 1
        assert res.transmissions == 0

    def test_crash_at_contact_start_wins_the_tie(self):
        # crash scheduled exactly at the contact's start time fires first
        sim, res = run_faulted(
            "pure",
            [(100.0, 300.0, 0, 1)],
            2,
            [Flow(flow_id=0, source=0, destination=1, num_bundles=1)],
            faults=FaultSpec(downtime_schedule=((1, 100.0, 400.0),)),
        )
        assert res.delivered == 0
        assert res.churn["missed_contacts"] == 1

    @pytest.mark.parametrize("kernel", ["event", "soa"])
    def test_outage_edges_at_contact_starts(self, kernel):
        # node 1 recovers at 200, exactly as its contact with the source
        # starts: the contact happens and 1 takes the bundle at 300. Node 2
        # crashes at 500, exactly as its contact with 1 starts: that contact
        # is missed (it would have delivered at 600). Node 2 is back at 900
        # and the last contact delivers at 1,100.
        sim, res = run_faulted(
            "pure",
            [(200.0, 350.0, 0, 1), (500.0, 650.0, 1, 2), (1_000.0, 1_150.0, 1, 2)],
            3,
            [Flow(flow_id=0, source=0, destination=2, num_bundles=1)],
            faults=FaultSpec(downtime_schedule=((1, 50.0, 200.0), (2, 500.0, 900.0))),
            kernel=kernel,
        )
        assert res.churn["missed_contacts"] == 1
        assert res.churn["dropped_contacts"] == 0
        assert res.churn["crashes"] == 2 and res.churn["recoveries"] == 2
        assert res.transmissions == 2
        assert res.delivered == 1 and res.delay == 1_100.0

    def test_buffer_wipe_loses_undelivered_copies(self):
        # relay 1 gets the copy at t=110, crashes at 300 with buffer loss,
        # and has nothing left to hand the destination at 500
        sim, res = run_faulted(
            "pure",
            [(10.0, 200.0, 0, 1), (500.0, 700.0, 1, 2)],
            3,
            [Flow(flow_id=0, source=0, destination=2, num_bundles=1)],
            faults=FaultSpec(
                downtime_schedule=((1, 300.0, 350.0),), state_loss="buffer"
            ),
        )
        assert res.delivered == 0
        assert res.removals["crashed"] == 1
        assert list(sim.nodes[1].sendable()) == []

    def test_state_preserving_reboot_keeps_copies(self):
        # same timeline, state_loss="none": the relay still delivers
        sim, res = run_faulted(
            "pure",
            [(10.0, 200.0, 0, 1), (500.0, 700.0, 1, 2)],
            3,
            [Flow(flow_id=0, source=0, destination=2, num_bundles=1)],
            faults=FaultSpec(
                downtime_schedule=((1, 300.0, 350.0),), state_loss="none"
            ),
        )
        assert res.delivered == 1
        assert res.removals["crashed"] == 0

    def test_delivered_survives_destination_wipe(self):
        # the destination's delivered log is never wiped: delivery sticks
        sim, res = run_faulted(
            "pure",
            [(10.0, 200.0, 0, 1)],
            3,
            [
                Flow(flow_id=0, source=0, destination=1, num_bundles=1),
                Flow(flow_id=1, source=2, destination=1, num_bundles=1),
            ],
            faults=FaultSpec(
                downtime_schedule=((1, 300.0, 400.0),), state_loss="all"
            ),
        )
        assert res.delivered == 1
        assert res.delivery_ratio == 0.5  # flow 1's source is isolated

    @pytest.mark.parametrize("protocol", ["pq", "immunity"])
    def test_knowledge_wipe_causes_reinfection(self, protocol):
        kwargs = (
            {"p": 1.0, "q": 1.0, "anti_packets": True} if protocol == "pq" else {}
        )
        sim, res = run_faulted(
            protocol,
            REINFECTION_ROWS,
            4,
            REINFECTION_FLOWS,
            faults=FaultSpec(
                downtime_schedule=((1, 600.0, 700.0),), state_loss="knowledge"
            ),
            protocol_kwargs=kwargs,
        )
        # the rebooted relay forgot the bundle was delivered, so the
        # still-ignorant source re-infects it at the last contact
        assert res.churn["reinfections"] == 1
        assert res.transmissions == 3
        assert sim.nodes[1].get_copy(next(iter(sim.nodes[2].delivered))) is not None

    @pytest.mark.parametrize("protocol", ["pq", "immunity"])
    def test_state_preserving_reboot_blocks_reinfection(self, protocol):
        kwargs = (
            {"p": 1.0, "q": 1.0, "anti_packets": True} if protocol == "pq" else {}
        )
        sim, res = run_faulted(
            protocol,
            REINFECTION_ROWS,
            4,
            REINFECTION_FLOWS,
            faults=FaultSpec(
                downtime_schedule=((1, 600.0, 700.0),), state_loss="none"
            ),
            protocol_kwargs=kwargs,
        )
        # the relay remembers: it refuses the copy and tells the source,
        # which purges its own stale copy instead of re-transmitting
        assert res.churn["reinfections"] == 0
        assert res.transmissions == 2

    def test_fault_environment_is_protocol_independent(self):
        # identical fault_seed → identical crash/outage schedule for every
        # protocol (common random numbers across the protocol axis)
        rows = [(t * 50.0, t * 50.0 + 30.0, t % 3, (t + 1) % 3) for t in range(1, 40)]
        flows = [Flow(flow_id=0, source=0, destination=2, num_bundles=8)]
        spec = FaultSpec(churn_rate=1e-3, mean_downtime=200.0, state_loss="all")
        churns = []
        for name in ("pure", "ttl", "immunity"):
            kwargs = {"ttl": 300.0} if name == "ttl" else {}
            _, res = run_faulted(
                name, rows, 3, flows,
                faults=spec, fault_seed=99, protocol_kwargs=kwargs,
            )
            churns.append(
                (res.churn["crashes"], res.churn["recoveries"], res.churn["downtime"])
            )
        assert churns[0] == churns[1] == churns[2]
        assert churns[0][0] > 0

    def test_random_churn_is_deterministic(self):
        rows = [(t * 50.0, t * 50.0 + 30.0, t % 3, (t + 1) % 3) for t in range(1, 40)]
        flows = [Flow(flow_id=0, source=0, destination=2, num_bundles=8)]
        spec = FaultSpec(churn_rate=1e-3, mean_downtime=200.0, state_loss="all")
        _, a = run_faulted("pure", rows, 3, flows, faults=spec, fault_seed=5)
        _, b = run_faulted("pure", rows, 3, flows, faults=spec, fault_seed=5)
        assert a == b
        _, c = run_faulted("pure", rows, 3, flows, faults=spec, fault_seed=6)
        assert a != c  # a different fault environment really is different

    def test_downtime_metrics_integrate_exactly(self):
        _, res = run_faulted(
            "pure",
            [(10.0, 200.0, 0, 1)],
            3,
            [
                Flow(flow_id=0, source=0, destination=1, num_bundles=1),
                Flow(flow_id=1, source=2, destination=1, num_bundles=1),
            ],
            faults=FaultSpec(
                downtime_schedule=((0, 300.0, 400.0), (2, 350.0, 500.0)),
            ),
            horizon=1000.0,
        )
        assert res.churn["downtime"] == pytest.approx(100.0 + 150.0)
        assert res.churn["mean_nodes_down"] == pytest.approx(250.0 / 1000.0)

    def test_schedule_node_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="references node"):
            run_faulted(
                "pure",
                [(10.0, 200.0, 0, 1)],
                2,
                [Flow(flow_id=0, source=0, destination=1, num_bundles=1)],
                faults=FaultSpec(downtime_schedule=((7, 10.0, 20.0),)),
            )


# -------------------------------------------------- occupancy wipe step


class TestOccupancyWipeStep:
    def test_wipe_records_explicit_step_to_zero(self):
        """Satellite acceptance: the occupancy series shows the buffer
        wipe as one explicit step at crash time, and the recorded
        ``buffer_occupancy`` equals the hand-computed integral of that
        piecewise-constant series."""
        # relay 1 (of 3 nodes × capacity 10) holds one copy from t=110
        # (transfer completes 100 s into the contact) until the crash
        # at t=300; horizon 1000
        sim, res = run_faulted(
            "pure",
            [(10.0, 200.0, 0, 1)],
            3,
            [Flow(flow_id=0, source=0, destination=2, num_bundles=1)],
            faults=FaultSpec(
                downtime_schedule=((1, 300.0, 400.0),), state_loss="buffer"
            ),
            horizon=1000.0,
            record_occupancy=True,
        )
        fill = 1.0 / (3 * 10)
        assert res.occupancy_series == ((110.0, fill), (300.0, 0.0))
        # integral: fill × (300 − 110), averaged over the 1000 s horizon
        assert res.buffer_occupancy == pytest.approx(fill * 190.0 / 1000.0)
        assert res.removals["crashed"] == 1

    def test_multi_copy_wipe_coalesces_to_one_step(self):
        # three copies wiped at one timestamp → exactly one series entry
        sim, res = run_faulted(
            "pure",
            [(10.0, 400.0, 0, 1)],
            3,
            [Flow(flow_id=0, source=0, destination=2, num_bundles=3)],
            faults=FaultSpec(
                downtime_schedule=((1, 600.0, 700.0),), state_loss="buffer"
            ),
            horizon=1000.0,
            record_occupancy=True,
        )
        assert res.removals["crashed"] == 3
        at_crash = [p for p in res.occupancy_series if p[0] == 600.0]
        assert at_crash == [(600.0, 0.0)]


# ------------------------------------------------------------- link faults


class TestLinkFaults:
    ROWS = [(10.0, 200.0, 0, 1), (300.0, 500.0, 1, 2)]
    FLOWS = [Flow(flow_id=0, source=0, destination=2, num_bundles=1)]

    def test_drop_prob_one_kills_every_contact(self):
        _, res = run_faulted(
            "pure", self.ROWS, 3, self.FLOWS,
            faults=FaultSpec(contact_drop_prob=1.0),
        )
        assert res.delivered == 0
        assert res.churn["dropped_contacts"] == 2
        assert res.transmissions == 0
        # a dropped contact exchanges nothing, not even control traffic
        assert res.signaling["summary_vector"] == 0

    def test_transfer_failure_prob_one_wastes_every_slot(self):
        _, res = run_faulted(
            "pure", self.ROWS, 3, self.FLOWS,
            faults=FaultSpec(transfer_failure_prob=1.0),
        )
        assert res.delivered == 0
        assert res.transmissions == 0
        assert res.churn["failed_transfers"] > 0

    def test_interruption_truncates_in_flight_transfer(self):
        # 10 bundles over a 1000 s contact: a transfer is always in
        # flight, so wherever the severance lands it interrupts one
        _, res = run_faulted(
            "pure",
            [(10.0, 1010.0, 0, 1)],
            2,
            [Flow(flow_id=0, source=0, destination=1, num_bundles=10)],
            faults=FaultSpec(interrupt_prob=1.0),
        )
        assert res.churn["interrupted_transfers"] == 1
        assert res.delivered < 10

    def test_interrupted_slot_is_charged_but_not_delivered(self):
        _, res = run_faulted(
            "pure",
            [(10.0, 1010.0, 0, 1)],
            2,
            [Flow(flow_id=0, source=0, destination=1, num_bundles=10)],
            faults=FaultSpec(interrupt_prob=1.0),
        )
        # delivered transmissions + the interrupted one never exceed what
        # the link had time for
        assert res.transmissions + res.churn["interrupted_transfers"] <= 10

    @pytest.mark.parametrize("kernel", ["auto", "event"])
    @pytest.mark.parametrize("protocol", ["pure", "dynamic_ttl", "immunity"])
    def test_faulted_run_builds_no_contact_objects(self, protocol, kernel):
        """A columnar trace keeps only its columns through a faulted run:
        the link-fault draws count contacts off the columns, and neither
        path of the sweep reads the contact list."""
        starts, ends, a, b = zip(*self.ROWS)
        trace = ContactTrace.from_arrays(starts, ends, a, b, num_nodes=3, horizon=1_000.0)
        faults = FaultSpec(
            churn_rate=1e-3,
            mean_downtime=100.0,
            contact_drop_prob=0.3,
            interrupt_prob=0.5,
            transfer_failure_prob=0.1,
        )
        sim = Simulation(
            trace,
            make_protocol_config(protocol),
            self.FLOWS,
            config=SimulationConfig(kernel=kernel, faults=faults),
            seed=2,
        )
        assert sim.run().churn
        assert "contacts" not in trace.__dict__


# ------------------------------------------------------- zero-cost-when-off


class TestZeroFaultIdentity:
    def test_trivial_spec_runs_identical_to_none(self):
        rows = [(t * 50.0, t * 50.0 + 120.0, t % 4, (t + 1) % 4) for t in range(1, 30)]
        flows = [Flow(flow_id=0, source=0, destination=3, num_bundles=6)]
        results = []
        for faults in (None, FaultSpec(), FaultSpec(state_loss="all")):
            trace = micro_trace(rows, 4)
            sim = Simulation(
                trace,
                make_protocol_config("immunity"),
                flows,
                config=SimulationConfig(faults=faults),
                seed=11,
            )
            results.append(sim.run())
        assert results[0] == results[1] == results[2]
        assert results[0].churn == {}
        assert "crashed" not in results[0].removals
        assert "churn" not in results[0].to_dict()


class TestChurnSchedule:
    """The batched churn draw schedules the scalar loop's outages bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        churn_rate=st.sampled_from((0.0, 1e-5, 2e-4)) | st.floats(1e-6, 0.5),
        mean_downtime=st.floats(1e-3, 5_000.0),
        schedule=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 9e4), st.floats(1e-3, 2e4)),
            max_size=4,
        ),
        num_nodes=st.integers(2, 6),
        fault_seed=st.integers(0, 2**32),
        horizon=st.floats(1.0, 1e5),
    )
    # thousands of cycles per node: several batches, each capped
    @example(
        churn_rate=0.5,
        mean_downtime=0.1,
        schedule=[],
        num_nodes=2,
        fault_seed=3,
        horizon=30_000.0,
    )
    def test_matches_the_scalar_loop(
        self, churn_rate, mean_downtime, schedule, num_nodes, fault_seed, horizon
    ):
        spec = FaultSpec(
            churn_rate=churn_rate,
            mean_downtime=mean_downtime if churn_rate else 0.0,
            downtime_schedule=tuple(
                (node % num_nodes, down, down + length) for node, down, length in schedule
            ),
            state_loss="all",
        )
        if spec.is_trivial:
            return
        trace = micro_trace([(0.0, 1.0, 0, 1)], num_nodes, horizon=horizon)
        sim = Simulation(
            trace,
            make_protocol_config("pure"),
            [Flow(flow_id=0, source=0, destination=1, num_bundles=1)],
            config=SimulationConfig(faults=spec),
            fault_seed=fault_seed,
        )
        spans = sim._schedule_faults(horizon)
        outages = scheduled_outages(spec, num_nodes, fault_seed, horizon)
        spans = [] if spans is None else spans
        assert list(zip(*(col.tolist() for col in spans))) == outages
        # and the calendar holds exactly their crashes and recoveries
        pushed = sorted(
            (entry[0], entry[2].__name__, entry[3][0]) for entry in sim.engine.heap
        )
        expected = sorted(
            [(down, "_on_crash", node) for node, down, _ in outages]
            + [(up, "_on_recover", node) for node, _, up in outages if up != float("inf")]
        )
        assert pushed == expected
