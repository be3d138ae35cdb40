"""Skip-path-vs-sweep-all equivalence gate for the contact sweep.

The contact sweep (:mod:`repro.core.sweepkernel`) promises that its skip
path (``kernel="soa"``) returns *byte-identical* ``RunResult``s to its
sweep-all path (``kernel="event"``) for every run it accepts — it is a
speed path, not an approximation. These tests pin that promise the way the
planner and batching refactors were pinned: ``repr`` equality over the
golden-pin protocol set on campus and RWP traces, plus the structural edge
cases the kernel handles specially (heterogeneous radios, buffer-pressure
drops under every policy, early halt at the delivery boundary), the
knowledge-store protocols ``kernel="auto"`` runs on the kernel, faulted
cells of every accepted protocol (churn under each ``state_loss`` mode,
lossy links, transfer failures), and the fail-fast rejection surface
(encounter-reactive protocols, subclasses that override a stock
knowledge hook, the ODE engine).
Randomized scenarios climb both paths on the differential ladder
(``tests/test_ladder.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.policies import drop_policy_names
from repro.core.protocols import make_protocol_config
from repro.core.protocols.immunity import CumulativeImmunityEpidemic, ImmunityEpidemic
from repro.core.protocols.pq import PQAntiPacketEpidemic
from repro.core.simulation import KERNELS, Simulation, SimulationConfig
from repro.core.sweepkernel import _KNOWLEDGE_HOOKS, SweepKernel, kernel_unsupported_reason
from repro.core.workload import Flow, single_flow
from repro.des.rng import derive_seed
from repro.faults import FaultSpec
from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.rwp import RWPConfig, SubscriberPointRWP
from repro.mobility.fastcontact import contacts_from_trajectories
from repro.scenarios.spec import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from tests.oracles.reference_sim import ReferenceSimulation

#: Every encounter-inert protocol the kernel accepts, with constructor
#: kwargs covering the state each one adds (TTL deadlines, EC counters,
#: forwarding coins, spray tokens).
INERT_PROTOCOLS = [
    ("pure", {}),
    ("ttl", {"ttl": 300.0}),
    ("ec", {}),
    ("ec_ttl", {}),
    ("pq", {"p": 0.8, "q": 0.4, "anti_packets": False}),
    ("spray_wait", {}),
]

#: The knowledge-store protocols the kernel runs with its
#: delivery-knowledge plane: id → (registry name, constructor kwargs).
KNOWLEDGE_PROTOCOLS = {
    "pq_antipacket": ("pq", {"p": 0.8, "q": 0.4, "anti_packets": True}),
    "immunity": ("immunity", {}),
    "cumulative_immunity": ("cumulative_immunity", {}),
}

#: Fault environments of the faulted kernel-vs-event cells: churn under
#: each ``state_loss`` mode, and lossy links with transfer failures.
FAULTS = {
    **{
        f"churn-{mode}": FaultSpec(churn_rate=3e-4, mean_downtime=1_500.0, state_loss=mode)
        for mode in ("none", "buffer", "knowledge", "all")
    },
    "links": FaultSpec(contact_drop_prob=0.1, interrupt_prob=0.3, transfer_failure_prob=0.1),
    "everything": FaultSpec(
        churn_rate=2e-4,
        mean_downtime=1_000.0,
        state_loss="all",
        contact_drop_prob=0.05,
        interrupt_prob=0.2,
        transfer_failure_prob=0.05,
    ),
}

#: Encounter-reactive configurations the kernel must refuse.
REACTIVE_PROTOCOLS = [
    ("dynamic_ttl", {}),
    ("prophet", {}),
]


def _rwp(num_nodes: int, seed: int) -> ContactTrace:
    """A subscriber-point RWP trace over 20,000 s."""
    cfg = RWPConfig(num_nodes=num_nodes, horizon=20_000.0)
    return contacts_from_trajectories(
        SubscriberPointRWP(cfg, seed=seed).generate_segments(),
        cfg.comm_range,
        contact_cap=cfg.contact_cap,
        horizon=cfg.horizon,
    )


@pytest.fixture(scope="module")
def rwp_trace() -> ContactTrace:
    """A 30-node subscriber-point RWP trace (bench-style mobility)."""
    return _rwp(30, seed=3)


@pytest.fixture(scope="module")
def rwp200_trace() -> ContactTrace:
    """A 200-node trace, where the per-contact control plane dominates."""
    return _rwp(200, seed=7)


#: RWP equivalence cells: (trace fixture, protocol, kwargs, load). Every
#: inert protocol on the 30-node trace, plus the 200-node anti-packet cell
#: at load 30 (p = q = 1), whose 24,990 contacts each carry an i-list.
RWP_CELLS = {
    **{name: ("rwp_trace", name, kwargs, 10) for name, kwargs in INERT_PROTOCOLS},
    "pq_antipacket-n200-l30": (
        "rwp200_trace",
        "pq",
        {"p": 1.0, "q": 1.0, "anti_packets": True},
        30,
    ),
}


def run_cell(
    trace: ContactTrace,
    name: str,
    kwargs: dict,
    kernel: str,
    *,
    load: int = 10,
    master_seed: int = 7,
    **config_kwargs,
) -> tuple[Simulation, object]:
    """One sweep cell seeded exactly like ``run_single``, on ``kernel``."""
    protocol = make_protocol_config(name, **kwargs)
    endpoint_rng = np.random.default_rng(derive_seed(master_seed, "workload", load, 0))
    flows = single_flow(trace.num_nodes, load, endpoint_rng)
    run_seed = int(
        derive_seed(master_seed, "run", protocol.protocol_name, load, 0).generate_state(
            1
        )[0]
    )
    sim = Simulation(
        trace,
        protocol,
        flows,
        config=SimulationConfig(kernel=kernel, **config_kwargs),
        seed=run_seed,
    )
    return sim, sim.run()


def assert_identical(trace, name, kwargs, **config_kwargs) -> None:
    """Both kernels must produce byte-identical results and event counts."""
    ev_sim, ev_result = run_cell(trace, name, kwargs, "event", **config_kwargs)
    soa_sim, soa_result = run_cell(trace, name, kwargs, "soa", **config_kwargs)
    assert repr(ev_result) == repr(soa_result)
    assert ev_result == soa_result
    # the skip path's event accounting must mirror the sweep-all path's,
    # which fires every contact
    assert ev_sim.batched_encounters == 0
    assert ev_sim.engine.events_fired == (
        soa_sim.engine.events_fired + soa_sim.batched_encounters
    )


# --------------------------------------------------------------- equivalence


@pytest.mark.parametrize(
    ("name", "kwargs"), INERT_PROTOCOLS, ids=[p[0] for p in INERT_PROTOCOLS]
)
def test_kernel_matches_event_on_campus(campus_trace, name, kwargs):
    assert_identical(campus_trace, name, kwargs)


@pytest.mark.parametrize("cell", sorted(RWP_CELLS))
def test_kernel_matches_event_on_rwp(request, cell):
    trace_name, name, kwargs, load = RWP_CELLS[cell]
    assert_identical(request.getfixturevalue(trace_name), name, kwargs, load=load)


#: Every protocol the kernel accepts: the inert ones and the knowledge stores.
ACCEPTED_PROTOCOLS = {
    **{name: (name, kwargs) for name, kwargs in INERT_PROTOCOLS},
    **KNOWLEDGE_PROTOCOLS,
}


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("protocol", sorted(ACCEPTED_PROTOCOLS))
def test_kernel_matches_event_under_faults(campus_trace, protocol, faults):
    name, kwargs = ACCEPTED_PROTOCOLS[protocol]
    assert_identical(campus_trace, name, kwargs, load=30, faults=FAULTS[faults])


@pytest.mark.parametrize("faults", ["churn-all", "everything"])
@pytest.mark.parametrize("protocol", ["pure", "ttl", "immunity", "cumulative_immunity"])
def test_kernel_matches_event_under_faults_on_rwp(rwp_trace, protocol, faults):
    """Heavier traffic: overlapping contacts and many skipped sessions."""
    name, kwargs = ACCEPTED_PROTOCOLS[protocol]
    assert_identical(rwp_trace, name, kwargs, load=10, faults=FAULTS[faults])


def test_kernel_matches_event_heterogeneous_radios(campus_trace):
    """Per-node tx times change the link budget of every session."""
    tx = tuple(60.0 + 15.0 * (i % 7) for i in range(campus_trace.num_nodes))
    assert_identical(campus_trace, "pure", {}, bundle_tx_time=tx)
    assert_identical(campus_trace, "ttl", {"ttl": 300.0}, bundle_tx_time=tx)


@pytest.mark.parametrize("policy", sorted(drop_policy_names()))
def test_kernel_matches_event_under_buffer_pressure(campus_trace, policy):
    """Tight buffers force admission control through every drop policy
    (drop-random additionally consumes the per-node RNG stream)."""
    assert_identical(
        campus_trace,
        "pure",
        {},
        load=30,
        buffer_capacity=2,
        drop_policy=policy,
    )


def test_kernel_matches_event_at_early_halt_boundary():
    """Delivery on the last relevant contact must halt both kernels at the
    same instant, with the trailing contacts charged but never simulated."""
    contacts = [
        Contact(start=100.0, end=400.0, a=0, b=1),
        Contact(start=500.0, end=900.0, a=1, b=2),
        # after full delivery: must be skipped identically by both tiers
        Contact(start=1_000.0, end=1_400.0, a=0, b=2),
        Contact(start=1_500.0, end=1_900.0, a=1, b=2),
    ]
    trace = ContactTrace(contacts, 3, horizon=10_000.0)
    flows = [Flow(flow_id=0, source=0, destination=2, num_bundles=2)]
    results = {}
    for kernel in ("event", "soa"):
        sim = Simulation(
            trace,
            make_protocol_config("pure"),
            flows,
            config=SimulationConfig(kernel=kernel),
            seed=11,
        )
        results[kernel] = sim.run()
    assert repr(results["event"]) == repr(results["soa"])
    assert results["event"].delivered == 2
    # the halt really was early — nothing ran past the delivering contact
    assert results["event"].end_time < 1_000.0


# ----------------------------------------------------------------- rejection


def test_config_rejects_unknown_kernel():
    with pytest.raises(ValueError, match="kernel"):
        SimulationConfig(kernel="vectorized")
    assert KERNELS == ("auto", "event", "soa")


def test_config_accepts_soa_under_faults(campus_trace):
    faults = FaultSpec(churn_rate=0.001, mean_downtime=50.0)
    config = SimulationConfig(kernel="soa", faults=faults)
    assert config.active_faults == faults
    for name, kwargs in (("pure", {}), ("immunity", {})):
        sim, _ = run_cell(campus_trace, name, kwargs, "soa", faults=faults)
        assert kernel_unsupported_reason(sim) is None
    assert_identical(campus_trace, "pure", {}, faults=faults)


def test_scenario_spec_accepts_soa_under_faults_at_load_time():
    """A faulted scenario pinned to the kernel loads, from the dataclass
    and from its JSON dict, and its sweep equals the sweep-all path's."""
    spec = ScenarioSpec(
        mobility=MobilitySpec("interval", {"num_nodes": 8, "max_encounters_per_node": 12}),
        protocols=(ProtocolSpec(name="pure"), ProtocolSpec(name="immunity")),
        workload=WorkloadSpec(loads=(3,), replications=2),
        kernel="soa",
        faults=FaultSpec(
            churn_rate=5e-4, mean_downtime=800.0, state_loss="all", contact_drop_prob=0.1
        ),
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    runs = spec.run().runs
    assert all(r.churn for r in runs)
    event = dataclasses.replace(spec, kernel="event").run().runs
    assert [repr(r) for r in runs] == [repr(r) for r in event]


@pytest.mark.parametrize(
    ("name", "kwargs"), REACTIVE_PROTOCOLS, ids=[p[0] for p in REACTIVE_PROTOCOLS]
)
def test_soa_rejects_encounter_reactive_protocols(campus_trace, name, kwargs):
    with pytest.raises(ValueError, match="kernel='soa' cannot execute this run"):
        run_cell(campus_trace, name, kwargs, "soa")


@pytest.mark.parametrize(
    ("name", "kwargs"), REACTIVE_PROTOCOLS, ids=[p[0] for p in REACTIVE_PROTOCOLS]
)
def test_auto_falls_back_to_event_identically(campus_trace, name, kwargs):
    _, auto_result = run_cell(campus_trace, name, kwargs, "auto")
    _, ev_result = run_cell(campus_trace, name, kwargs, "event")
    assert repr(auto_result) == repr(ev_result)


@pytest.mark.parametrize("trace_name", ["campus", "rwp"])
@pytest.mark.parametrize("protocol", sorted(KNOWLEDGE_PROTOCOLS))
def test_auto_runs_knowledge_protocols_on_kernel(request, monkeypatch, protocol, trace_name):
    """auto takes the skip path for every stock knowledge-store protocol,
    event the sweep-all path, and the two match byte for byte, event count
    included."""
    trace = request.getfixturevalue(f"{trace_name}_trace")
    name, kwargs = KNOWLEDGE_PROTOCOLS[protocol]
    sweeps_all = []
    run = SweepKernel.run

    def counted(kernel, horizon):
        sweeps_all.append(kernel._sweep_all)
        return run(kernel, horizon)

    monkeypatch.setattr(SweepKernel, "run", counted)
    auto_sim, auto_result = run_cell(trace, name, kwargs, "auto", load=30)
    ev_sim, ev_result = run_cell(trace, name, kwargs, "event", load=30)
    assert sweeps_all == [False, True]
    assert repr(auto_result) == repr(ev_result)
    # every contact carries the stores, so none is batched on either tier
    assert auto_sim.batched_encounters == ev_sim.batched_encounters == 0
    assert auto_sim.engine.events_fired == ev_sim.engine.events_fired


@dataclass(frozen=True)
class _SubclassConfig:
    """Builds one protocol subclass per node (a custom protocol's config)."""

    cls: type
    kwargs: tuple = ()
    protocol_name = "custom"
    label = "custom"

    def build(self, node, sim, rng):
        return self.cls(node, sim, rng, **dict(self.kwargs))


_STOCK_CLASSES = {
    "pq_antipacket": (PQAntiPacketEpidemic, (("p", 1.0), ("q", 1.0))),
    "immunity": (ImmunityEpidemic, ()),
    "cumulative_immunity": (CumulativeImmunityEpidemic, ()),
}


def _overrides(stock: type) -> list[str]:
    base = next(b for b in _KNOWLEDGE_HOOKS if issubclass(stock, b))
    return [*_KNOWLEDGE_HOOKS[base], "on_encounter_started"]


@pytest.mark.parametrize(
    ("protocol", "hook"),
    [(p, hook) for p, (cls, _) in _STOCK_CLASSES.items() for hook in _overrides(cls)],
)
def test_soa_refuses_subclass_overriding_a_knowledge_hook(campus_trace, protocol, hook):
    """Behaviour-preserving overrides still leave the stock hooks the
    knowledge plane mirrors, so the kernel refuses them by name, and auto
    falls back to the sweep-all path with the stock result."""
    stock, kwargs = _STOCK_CLASSES[protocol]
    stock_hook = getattr(stock, hook)
    custom = type(
        f"Custom{stock.__name__}", (stock,), {hook: lambda self, *args: stock_hook(self, *args)}
    )
    flows = [Flow(flow_id=0, source=0, destination=5, num_bundles=3)]

    def simulation(cls, kernel):
        return Simulation(
            campus_trace,
            _SubclassConfig(cls, kwargs),
            flows,
            config=SimulationConfig(kernel=kernel),
            seed=5,
        )

    reason = kernel_unsupported_reason(simulation(custom, "auto"))
    assert reason is not None and hook in reason
    with pytest.raises(ValueError, match=hook):
        simulation(custom, "soa").run()
    assert kernel_unsupported_reason(simulation(stock, "auto")) is None
    assert repr(simulation(custom, "auto").run()) == repr(simulation(stock, "soa").run())


def test_auto_uses_kernel_for_inert_population(campus_trace):
    """auto on an eligible run takes the skip path (no heap churn), and the
    result still matches the forced-event run byte for byte."""
    auto_sim, auto_result = run_cell(campus_trace, "pure", {}, "auto")
    _, ev_result = run_cell(campus_trace, "pure", {}, "event")
    assert repr(auto_result) == repr(ev_result)
    # the SoA calendar fires far fewer heap events than the contact count
    assert auto_sim.batched_encounters > 0


def test_soa_rejects_ode_engine():
    with pytest.raises(ValueError, match="engine"):
        SimulationConfig(engine="ode", kernel="soa")


def _fixed_severance(severed_at: dict[tuple[float, float, int, int], float]) -> type:
    """A Simulation whose contacts sever at the given times (inf: never)."""

    class FixedSeverance(Simulation):
        def _draw_link_faults(self, arrays):
            self._contact_severed_at = np.array(
                [severed_at.get((c.start, c.end, c.a, c.b), np.inf) for c in self.trace]
            )

    return FixedSeverance


@pytest.mark.parametrize("bundles", [1, 2])
def test_skipped_severance_at_the_halting_instant(bundles):
    """A futile carrying contact's idle session had its severance pushed;
    at the instant the run halts, that no-op event fired only if it was
    pushed before the halting completion. With one bundle the halt comes
    from the first completion (pushed by its contact at t=0), with two
    from the second (pushed by the completion at t=100)."""
    halt = 100.0 * bundles
    contacts = [
        (0.0, 120.0 * bundles, 3, 4),  # swept before the carrying contact
        (0.0, 250.0, 0, 2),  # delivers the flow, one bundle per 100 s
        (0.0, 300.0, 4, 5),  # swept after it, at the same start
        (50.0, 400.0, 3, 5),  # starts before the completion at 100
        (150.0, 400.0, 1, 3),  # starts after it
    ]
    simulation = _fixed_severance(
        {c: halt for c in contacts if c[2] != 0 and c[0] <= halt < c[1]}
    )
    trace = ContactTrace.from_tuples(contacts, 6, horizon=1_000.0)
    flows = [Flow(flow_id=0, source=0, destination=2, num_bundles=bundles)]
    sims = {
        kernel: simulation(
            trace,
            make_protocol_config("pure"),
            flows,
            config=SimulationConfig(kernel=kernel, faults=FaultSpec(interrupt_prob=0.5)),
            seed=1,
        )
        for kernel in ("event", "soa")
    }
    results = {kernel: sim.run() for kernel, sim in sims.items()}
    assert repr(results["soa"]) == repr(results["event"])
    assert results["event"].end_time == halt
    event, soa = sims["event"], sims["soa"]
    assert event.engine.events_fired == soa.engine.events_fired + soa.batched_encounters


# ------------------------------------------------ plane swap and bulk removal

#: Three flows listed, and created, out of flow-id order, so a bundle's
#: position in the flow list is not its rank among the ids: the plane swap
#: teaches a store several flows' ids at once, in BundleId order.
MULTI_FLOWS = [
    Flow(flow_id=2, source=3, destination=17, num_bundles=4),
    Flow(flow_id=0, source=8, destination=21, num_bundles=3, created_at=2_000.0),
    Flow(flow_id=1, source=11, destination=5, num_bundles=5, created_at=500.0),
]

#: Mid-run crashes that wipe buffers and knowledge: a source while it holds
#: its origin copies, and a relay after the first deliveries.
WIPES = FaultSpec(
    downtime_schedule=((3, 1_000.0, 1_800.0), (8, 6_000.0, 6_500.0), (14, 9_000.0, 9_400.0)),
    churn_rate=3e-5,
    mean_downtime=800.0,
    state_loss="all",
)


def node_state(sim: Simulation) -> list[tuple]:
    return [
        (
            dataclasses.astuple(n.counters),
            n.control_storage,
            sorted(n.relay.entries_view()),
            sorted(n.delivered),
        )
        for n in sim.nodes
    ]


def three_ways(trace, name, kwargs, flows, **config_kwargs):
    """The reference schedule (one remove_copy per purged or wiped copy),
    the sweep-all path and the skip path on one run: results with their
    occupancy series, node state, event counts and the sequence of
    control-storage deltas (a float sum, so their order counts) must
    agree. Returns the skip path's result."""
    protocol = make_protocol_config(name, **kwargs)
    runs = []
    rungs = ((ReferenceSimulation, "event"), (Simulation, "event"), (Simulation, "soa"))
    for cls, kernel in rungs:
        sim = cls(
            trace,
            protocol,
            flows,
            config=SimulationConfig(kernel=kernel, record_occupancy=True, **config_kwargs),
            seed=9,
            fault_seed=4,
        )
        deltas = []
        storage_delta = sim.metrics.on_control_storage_delta

        def logged(delta, now, deltas=deltas, storage_delta=storage_delta):
            deltas.append((now, delta))
            storage_delta(delta, now)

        sim.metrics.on_control_storage_delta = logged
        result = sim.run()
        runs.append(
            (
                repr(result),
                node_state(sim),
                sim.engine.events_fired + sim.batched_encounters,
                deltas,
            )
        )
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert kernel_unsupported_reason(sim) is None
    return result


@pytest.mark.parametrize("protocol", sorted(KNOWLEDGE_PROTOCOLS))
def test_plane_swap_on_out_of_order_flows(rwp200_trace, protocol):
    name, kwargs = KNOWLEDGE_PROTOCOLS[protocol]
    result = three_ways(rwp200_trace, name, kwargs, MULTI_FLOWS)
    # knowledge of every flow spread and purged copies
    assert result.delivered == 12
    assert result.removals["immunized"] > 0


@pytest.mark.parametrize("protocol", ["ttl", *sorted(KNOWLEDGE_PROTOCOLS)])
def test_bulk_crash_wipe(rwp200_trace, protocol):
    """A crash wipes a node's buffer in one bulk removal (expiries of a TTL
    protocol cancelled with it) and its knowledge plane."""
    name, kwargs = ACCEPTED_PROTOCOLS[protocol]
    result = three_ways(rwp200_trace, name, kwargs, MULTI_FLOWS, faults=WIPES)
    assert result.churn["crashes"] >= 3
    assert result.removals["crashed"] > 1
