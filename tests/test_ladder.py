"""The differential ladder: every tier and executor returns the same run.

One scenario generator (:mod:`tests.strategies`) drives every rung:

* **cell rung**, per drawn run: the reference schedule
  (:class:`~tests.oracles.reference_sim.ReferenceSimulation` — one event
  per contact, the original session and the rebuild-filter-sort planner,
  the original faults-only contact handler) ≡ ``kernel="event"`` (the
  sweep's sweep-all path) ≡ ``kernel="soa"`` (its skip path) when the run
  is eligible, else ``kernel="auto"``, which then sweeps every contact.
  Mixed populations climb it too. The paths must agree on the
  ``RunResult`` repr, on every node's counters, control storage, relay
  ids and delivered set, on the encounter history of a protocol that
  keeps one (dynamic TTL), and on the reference's event count; both must
  also plan the reference's transfers in the reference's order.
* **grid rung**, per drawn small sweep: serial ≡ ``ParallelExecutor(2)`` ≡
  a checkpointed campaign resumed from a truncated journal, faulted
  sweeps included (and their runs really carry the churn block); and a
  trivial fault spec ≡ no fault spec, byte for byte.
* **metamorphic rung**: every enhancement at its degenerate parameters is
  the protocol it enhances (the paper's "parameterised epidemic").
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.executors import ParallelExecutor
from repro.core.simulation import SimulationConfig
from repro.core.sweepkernel import kernel_unsupported_reason
from repro.core.workload import Flow
from repro.des.rng import derive_seed
from repro.faults import FaultSpec
from repro.mobility.contact import ContactTrace
from repro.scenarios.spec import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from tests.oracles.reference_sim import RecordingSimulation, ReferenceSimulation
from tests.strategies import PROTOCOLS, Cell, MixedConfig, cells, fault_specs, grids

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: The churn-resilience example scenario: churn with full state loss,
#: contact drops, interruptions and transfer failures on a real grid.
CHURN_SCENARIO = (
    Path(__file__).resolve().parent.parent / "examples" / "scenarios" / "churn_resilience.json"
)


def node_state(sim) -> list[tuple]:
    return [
        (
            dataclasses.astuple(n.counters),
            encounter_history(n.protocol),
            n.control_storage,
            sorted(n.relay.entries_view()),
            sorted(n.delivered),
        )
        for n in sim.nodes
    ]


def encounter_history(protocol) -> tuple | None:
    """The encounter timing the protocol keeps, if it keeps any."""
    history = getattr(protocol, "history", None)
    return None if history is None else dataclasses.astuple(history)


def climb(cell: Cell) -> tuple[int, bool]:
    """Run ``cell`` on the reference and on both paths of the sweep.

    Returns the reference's planner calls and whether the SoA rung ran.
    """
    ref = cell.simulation(ReferenceSimulation)
    expected = repr(ref.run())
    state = node_state(ref)
    events = ref.engine.events_fired

    event = cell.simulation(RecordingSimulation, kernel="event")
    assert repr(event.run()) == expected
    assert node_state(event) == state
    # the sweep-all path fires every contact: nothing is batched
    assert event.batched_encounters == 0
    assert event.engine.events_fired == events
    assert event.picks == ref.picks

    # the SoA rung when the skip path accepts the run, else auto's
    # fallback to the sweep-all path
    soa_ran = kernel_unsupported_reason(cell.simulation()) is None
    tier = cell.simulation(RecordingSimulation, kernel="soa" if soa_ran else "auto")
    assert repr(tier.run()) == expected
    assert node_state(tier) == state
    # a skipped contact is a batched encounter or a fired event of the
    # sweep, and so is a lost one or a skipped session's no-op severance
    assert tier.engine.events_fired + tier.batched_encounters == events
    assert tier.picks == ref.picks
    return ref.planner_calls, soa_ran


#: A run the generator draws only rarely: a peer-destined bundle newer
#: than the rest, a degenerate contact starting at each delivery instant
#: (the last halts the run), and delivery knowledge travelling b → a along
#: a run of degenerate contacts.
BOUNDARY_TRACE = ContactTrace.from_tuples(
    [
        (0.0, 300.0, 0, 1),  # 0 delivers 1's bundle, then relays 3's two
        (300.0, 400.0, 1, 3),  # bundle 1 delivered at 400
        (400.0, 450.0, 0, 2),
        (450.0, 500.0, 2, 3),  # 2 learns of the delivery from 3 ...
        (550.0, 600.0, 1, 2),  # ... and 1 from 2
        (700.0, 900.0, 1, 3),  # bundle 2 delivered at 800: the run halts
        (800.0, 850.0, 0, 2),
    ],
    4,
    horizon=2_000.0,
)


#: The stream rule's two ties (``repro.des.engine``), one run each: a flow
#: created at a contact's start is offered to that contact (an event pushed
#: before the run fires first) ...
FLOW_TIE = (
    ContactTrace.from_tuples([(100.0, 300.0, 0, 1)], 3, horizon=1_000.0),
    (Flow(0, 0, 1, 1, created_at=100.0),),
)
#: ... and a transfer completing as the next contact starts is not (the
#: contact fires first, so its session finds nothing to send and idles).
COMPLETION_TIE = (
    ContactTrace.from_tuples([(0.0, 100.0, 0, 1), (100.0, 200.0, 1, 2)], 3, horizon=1_000.0),
    (Flow(0, 0, 2, 1),),
)

#: A sender that learns mid-flight that its bundle arrived wastes the slot:
#: node 1 starts sending 0's bundle to 2 at 250, learns of its delivery
#: from 3 over a zero-transfer contact at 300 (purging its copy), and the
#: transfer completes at 350. Flow 1 never arrives, so the run goes on.
SENDER_LEARNS = (
    ContactTrace.from_tuples(
        [
            (0.0, 100.0, 0, 1),  # 1 takes a copy of bundle (0, 1)
            (100.0, 200.0, 0, 3),  # ... which is delivered at 200
            (250.0, 400.0, 1, 2),  # 1 starts sending its copy to 2
            (300.0, 320.0, 1, 3),  # and learns mid-flight it arrived
        ],
        5,
        horizon=1_000.0,
    ),
    (Flow(0, 0, 3, 1), Flow(1, 2, 4, 1)),
)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_cell_ladder(protocol):
    calls = soa_rungs = faulted_soa_rungs = 0
    flows = (Flow(0, 0, 3, 2), Flow(1, 0, 1, 1))
    boundary = Cell(BOUNDARY_TRACE, PROTOCOLS[protocol], flows, SimulationConfig(), 0, 0)
    # node 3 is down when its 300 s contact with node 1 starts
    outage = SimulationConfig(faults=FaultSpec(downtime_schedule=((3, 250.0, 350.0),)))
    flow_tie, completion_tie, sender_learns = (
        Cell(trace, PROTOCOLS[protocol], tie_flows, SimulationConfig(), 0, 0)
        for trace, tie_flows in (FLOW_TIE, COMPLETION_TIE, SENDER_LEARNS)
    )

    @settings(max_examples=30, **SETTINGS)
    @given(cell=cells((protocol,)))
    @example(cell=boundary)
    @example(cell=dataclasses.replace(boundary, config=outage))
    @example(cell=flow_tie)
    @example(cell=completion_tie)
    @example(cell=sender_learns)
    def climb_drawn(cell):
        nonlocal calls, soa_rungs, faulted_soa_rungs
        planned, soa_ran = climb(cell)
        calls += planned
        soa_rungs += soa_ran
        faulted_soa_rungs += soa_ran and cell.config.active_faults is not None

    climb_drawn()
    # the reference planner really planned this protocol's sessions
    assert calls > 0
    # and a protocol the kernel accepts really climbed the SoA rung,
    # faulted draws included
    if kernel_unsupported_reason(boundary.simulation()) is None:
        assert soa_rungs > 0
        assert faulted_soa_rungs > 0


#: Populations that mix protocol classes, which the skip path refuses:
#: PRoPHET beside anti-packet P-Q, and pure beside dynamic TTL and
#: immunity (node ``i`` runs member ``i`` mod the member count).
MIXED = {
    "prophet+pq_antipacket": ("prophet", "pq_antipacket"),
    "pure+dynamic_ttl+immunity": ("pure", "dynamic_ttl", "immunity"),
}


@pytest.mark.parametrize("faulted", [False, True], ids=["unfaulted", "faulted"])
@pytest.mark.parametrize("mix", sorted(MIXED))
@settings(max_examples=15, **SETTINGS)
@given(data=st.data())
def test_mixed_population_ladder(mix, faulted, data):
    cell = data.draw(cells(faults=fault_specs(trivial=False) if faulted else st.none()))
    mixed = dataclasses.replace(
        cell, protocol=MixedConfig(tuple(PROTOCOLS[name] for name in MIXED[mix]))
    )
    _, soa_ran = climb(mixed)
    assert not soa_ran


@settings(max_examples=5, **SETTINGS)
@given(spec=grids(), keep=st.integers(0, 12), torn=st.booleans())
@example(
    spec=ScenarioSpec(
        mobility=MobilitySpec("interval", {"num_nodes": 6, "max_encounters_per_node": 6}),
        protocols=(ProtocolSpec("pure"), ProtocolSpec("immunity")),
        workload=WorkloadSpec(loads=(2, 5), replications=2),
        seed=3,
    ),
    keep=3,
    torn=True,
)
@example(spec=ScenarioSpec.load(CHURN_SCENARIO), keep=7, torn=False)
def test_grid_ladder(spec, keep, torn):
    runs = spec.run().runs
    serial = [repr(r) for r in runs]
    if spec.faults is not None:
        # the fault spec reached every run
        assert all(r.churn for r in runs)
    # a trivial fault spec injects nothing: the grid of no fault spec
    plain, trivial = (
        [repr(r) for r in dataclasses.replace(spec, faults=faults).run().runs]
        for faults in (None, FaultSpec())
    )
    assert trivial == plain
    assert [repr(r) for r in spec.run(executor=ParallelExecutor(2)).runs] == serial
    with tempfile.TemporaryDirectory() as tmp:
        campaign = Path(tmp)
        assert [repr(r) for r in spec.run(checkpoint=campaign).runs] == serial
        journal = campaign / "journal.jsonl"
        records = journal.read_bytes().splitlines(keepends=True)
        kept = records[: keep % (len(records) + 1)]
        if torn and len(kept) < len(records):
            # a crash mid-append leaves half a record behind
            kept.append(records[len(kept)][:-5])
        journal.write_bytes(b"".join(kept))
        resumed = spec.run(checkpoint=campaign, resume=True).runs
    assert [repr(r) for r in resumed] == serial


#: enhancement at its degenerate parameters → the protocol it enhances
REDUCTIONS = {
    "ttl-pure": (("ttl", {"ttl": 1e12}), ("pure", {})),
    "pq11-pure": (("pq", {"p": 1.0, "q": 1.0}), ("pure", {})),
    "ec_ttl-ec": (("ec_ttl", {"ec_threshold": 10**9}), ("ec", {})),
    "dynamic_ttl-pure": (("dynamic_ttl", {"multiplier": 1e12}), ("pure", {})),
}

#: drop-random is excluded: a sweep seeds each node's drop stream from the
#: run seed, which keys on the protocol name (docs/architecture.md)
DETERMINISTIC_POLICIES = ("drop-oldest", "drop-tail", "drop-youngest", "reject")


@pytest.mark.parametrize("relation", REDUCTIONS)
@settings(max_examples=15, **SETTINGS)
@given(
    cell=cells(("pure",), policies=DETERMINISTIC_POLICIES),
    kernel=st.sampled_from(("event", "auto")),
)
def test_enhancement_reduces_to_its_base(relation, cell, kernel):
    results = []
    for protocol in REDUCTIONS[relation]:
        # seeded like run_single: the run seed keys on the protocol name
        seed = int(derive_seed(cell.seed, "run", protocol[0], 0, 0).generate_state(1)[0])
        run = dataclasses.replace(cell, protocol=protocol, seed=seed).simulation(kernel=kernel)
        result = dataclasses.replace(run.run(), protocol="", protocol_label="", seed=0)
        results.append(repr(result))
    assert results[0] == results[1]
