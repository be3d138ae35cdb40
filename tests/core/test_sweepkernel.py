"""Kernel-vs-event equivalence gate for the SoA contact-sweep kernel.

The sweep kernel (:mod:`repro.core.sweepkernel`) promises *byte-identical*
``RunResult``s to the event engine for every run it accepts — it is a
speed tier, not an approximation. These tests pin that promise the way the
planner and batching refactors were pinned: ``repr`` equality over the
golden-pin protocol set on campus and RWP traces, plus the structural edge
cases the kernel handles specially (heterogeneous radios, buffer-pressure
drops under every policy, early halt at the delivery boundary), the
knowledge-store protocols ``kernel="auto"`` runs on the kernel, and the
fail-fast rejection surface (faults, encounter-reactive protocols,
subclasses that override a stock knowledge hook, the ODE engine).
Randomized scenarios climb both kernels on the differential ladder
(``tests/test_ladder.py``).
"""

from __future__ import annotations

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
from repro.mobility.trajectory import contacts_from_trajectories
from repro.scenarios.spec import MobilitySpec, ProtocolSpec, ScenarioSpec

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

#: Encounter-reactive configurations the kernel must refuse.
REACTIVE_PROTOCOLS = [
    ("dynamic_ttl", {}),
    ("prophet", {}),
]


@pytest.fixture(scope="module")
def rwp_trace() -> ContactTrace:
    """A 30-node subscriber-point RWP trace (bench-style mobility)."""
    cfg = RWPConfig(num_nodes=30, horizon=20_000.0)
    trajectories = SubscriberPointRWP(cfg, seed=3).generate_trajectories()
    return contacts_from_trajectories(
        trajectories,
        cfg.comm_range,
        contact_cap=cfg.contact_cap,
        horizon=cfg.horizon,
    )


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
    # the kernel's event accounting must mirror the reference schedule too
    assert (
        ev_sim.engine.events_fired + ev_sim.batched_encounters
        == soa_sim.engine.events_fired + soa_sim.batched_encounters
    )


# --------------------------------------------------------------- equivalence


@pytest.mark.parametrize(
    ("name", "kwargs"), INERT_PROTOCOLS, ids=[p[0] for p in INERT_PROTOCOLS]
)
def test_kernel_matches_event_on_campus(campus_trace, name, kwargs):
    assert_identical(campus_trace, name, kwargs)


@pytest.mark.parametrize(
    ("name", "kwargs"), INERT_PROTOCOLS, ids=[p[0] for p in INERT_PROTOCOLS]
)
def test_kernel_matches_event_on_rwp(rwp_trace, name, kwargs):
    assert_identical(rwp_trace, name, kwargs)


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


def test_config_rejects_soa_under_faults():
    with pytest.raises(ValueError, match="fault injection"):
        SimulationConfig(
            kernel="soa", faults=FaultSpec(churn_rate=0.001, mean_downtime=50.0)
        )
    # a trivial (all-defaults) fault spec injects nothing → allowed
    SimulationConfig(kernel="soa", faults=FaultSpec())


def test_scenario_spec_rejects_soa_under_faults_at_load_time():
    """The refusal must happen when the spec is built, not mid-campaign."""
    spec_kwargs = dict(
        mobility=MobilitySpec(kind="campus", params={}),
        protocols=(ProtocolSpec(name="pure"),),
        kernel="soa",
        faults=FaultSpec(contact_drop_prob=0.1),
    )
    with pytest.raises(ValueError, match="fault injection"):
        ScenarioSpec(**spec_kwargs)
    # the identical dict round-trips through from_dict to the same error
    good = ScenarioSpec(
        mobility=MobilitySpec(kind="campus", params={}),
        protocols=(ProtocolSpec(name="pure"),),
        kernel="soa",
    )
    data = good.to_dict()
    assert data["kernel"] == "soa"
    data["faults"] = {"contact_drop_prob": 0.1}
    with pytest.raises(ValueError, match="fault injection"):
        ScenarioSpec.from_dict(data)


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
    """auto takes the SoA tier for every stock knowledge-store protocol and
    matches the forced-event run byte for byte, event count included."""
    trace = request.getfixturevalue(f"{trace_name}_trace")
    name, kwargs = KNOWLEDGE_PROTOCOLS[protocol]
    kernel_runs = []
    run = SweepKernel.run

    def counted(kernel, horizon):
        kernel_runs.append(horizon)
        return run(kernel, horizon)

    monkeypatch.setattr(SweepKernel, "run", counted)
    auto_sim, auto_result = run_cell(trace, name, kwargs, "auto", load=30)
    assert len(kernel_runs) == 1
    ev_sim, ev_result = run_cell(trace, name, kwargs, "event", load=30)
    assert len(kernel_runs) == 1
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
    return [*_KNOWLEDGE_HOOKS[base], "on_encounter_started", "epoch_gated_control"]


@pytest.mark.parametrize(
    ("protocol", "hook"),
    [(p, hook) for p, (cls, _) in _STOCK_CLASSES.items() for hook in _overrides(cls)],
)
def test_soa_refuses_subclass_overriding_a_knowledge_hook(campus_trace, protocol, hook):
    """Behaviour-preserving overrides still leave the stock hooks the
    knowledge plane mirrors, so the kernel refuses them by name, and auto
    falls back to the event tier with the stock result."""
    stock, kwargs = _STOCK_CLASSES[protocol]
    if hook == "epoch_gated_control":
        body = {hook: False}
    else:
        stock_hook = getattr(stock, hook)
        body = {hook: lambda self, *args: stock_hook(self, *args)}
    custom = type(f"Custom{stock.__name__}", (stock,), body)
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
    """auto on an eligible run takes the SoA tier (no heap churn), and the
    result still matches the forced-event run byte for byte."""
    auto_sim, auto_result = run_cell(campus_trace, "pure", {}, "auto")
    _, ev_result = run_cell(campus_trace, "pure", {}, "event")
    assert repr(auto_result) == repr(ev_result)
    # the SoA calendar fires far fewer heap events than the contact count
    assert auto_sim.batched_encounters > 0


def test_soa_rejects_ode_engine():
    with pytest.raises(ValueError, match="engine"):
        SimulationConfig(engine="ode", kernel="soa")
