"""One Hypothesis scenario generator for the differential and property tests.

:func:`cells` draws a complete simulation input — trace, protocol, flows,
:class:`~repro.core.simulation.SimulationConfig` and seeds — and
:func:`grids` a small :class:`~repro.scenarios.ScenarioSpec` sweep. Both
cover every axis a tier or executor could get wrong:

* traces: explicit contact lists on an integer grid (contact starts land
  exactly on TTL expiries and on each other) or with float times,
  overlapping contacts, horizons flush with the last contact end; or a
  registered mobility kind (``interval``, ``poisson``);
* every registry protocol, P-Q with and without anti-packets;
* every drop policy, scalar and per-node buffers and radios, with and
  without the occupancy series;
* no fault spec, a trivial one, or an active one: churn under each
  ``state_loss`` mode, an explicit outage, contact drops, interruptions,
  transfer failures;
* loads and flow start times that let many runs deliver early and halt.
"""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from repro.core.policies import drop_policy_names
from repro.core.protocols import make_protocol_config
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import Flow
from repro.faults import STATE_LOSS_MODES, FaultSpec
from repro.mobility.contact import Contact, ContactTrace
from repro.scenarios.spec import (
    MobilitySpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_mobility,
)

#: Every registry protocol, with parameters that make its mechanism bite
#: on the drawn traces (TTLs on the integer grid, small EC thresholds).
PROTOCOLS: dict[str, tuple[str, dict]] = {
    "pure": ("pure", {}),
    "ttl": ("ttl", {"ttl": 400.0}),
    "dynamic_ttl": ("dynamic_ttl", {"multiplier": 1.5, "default_ttl": 600.0}),
    "pq": ("pq", {"p": 0.6, "q": 0.4}),
    "pq_antipacket": ("pq", {"p": 0.7, "q": 0.5, "anti_packets": True}),
    "ec": ("ec", {}),
    "ec_ttl": ("ec_ttl", {"ec_threshold": 2, "min_ec_evict": 1}),
    "immunity": ("immunity", {}),
    "cumulative_immunity": ("cumulative_immunity", {}),
    "spray_wait": ("spray_wait", {"initial_tokens": 4}),
    "prophet": ("prophet", {}),
}

DROP_POLICIES = tuple(sorted(drop_policy_names()))

#: Per-node radio speeds: with 100 s bundles a 120 s contact carries one
#: bundle on a fast pair and none on a slow one.
TX_TIMES = (60.0, 100.0, 150.0)


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulation run's complete input."""

    trace: ContactTrace
    protocol: tuple[str, dict]
    flows: tuple[Flow, ...]
    config: SimulationConfig
    seed: int
    fault_seed: int

    def simulation(self, cls: type[Simulation] = Simulation, **config) -> Simulation:
        """A fresh ``cls`` run of this cell; ``config`` overrides fields."""
        name, kwargs = self.protocol
        return cls(
            self.trace,
            make_protocol_config(name, **kwargs),
            list(self.flows),
            config=dataclasses.replace(self.config, **config),
            seed=self.seed,
            fault_seed=self.fault_seed,
        )


@st.composite
def explicit_traces(draw) -> ContactTrace:
    """A hand-rolled contact list: grid or float times."""
    num_nodes = draw(st.integers(3, 7))
    # about half the contacts are too short for one 100 s bundle, as in
    # dense traces, so degenerate runs and carrying contacts interleave
    if draw(st.booleans()):
        # a 50 s grid: contact starts tie with each other, with transfer
        # completions and with TTL expiries
        gaps = st.integers(0, 4).map(lambda k: 50.0 * k)
        durations = st.just(50.0) | st.integers(2, 12).map(lambda k: 50.0 * k)
    else:
        gaps = st.floats(0.0, 900.0)
        durations = st.floats(20.0, 99.0) | st.floats(100.0, 900.0)
    contacts: list[Contact] = []
    t = 0.0
    for _ in range(draw(st.integers(1, 30))):
        # the cursor advances by the gap only, so a long contact overlaps
        # the ones starting after it (and a zero gap ties their starts);
        # a contact may also start as an earlier one's k-th 100 s slot
        # ends, tying its start with that transfer's completion
        t += draw(gaps)
        start = t
        if contacts and draw(st.booleans()):
            start = draw(st.sampled_from(contacts)).start + 100.0 * draw(st.integers(1, 6))
        a = draw(st.integers(0, num_nodes - 1))
        b = (a + draw(st.integers(1, num_nodes - 1))) % num_nodes
        contacts.append(Contact(start=start, end=start + draw(durations), a=a, b=b))
    last_end = max(c.end for c in contacts)
    horizon = last_end + draw(st.sampled_from((0.0, 1.0, 3_000.0)))
    return ContactTrace(contacts, num_nodes, horizon=horizon)


@st.composite
def serial_traces(draw) -> ContactTrace:
    """A contact list in which no node is ever in two contacts at once.

    Each contact starts strictly after both endpoints' previous contacts
    end; contacts of disjoint pairs still overlap and tie.
    """
    num_nodes = draw(st.integers(3, 7))
    if draw(st.booleans()):
        gaps = st.integers(1, 4).map(lambda k: 50.0 * k)
        durations = st.just(50.0) | st.integers(2, 12).map(lambda k: 50.0 * k)
    else:
        gaps = st.floats(1.0, 900.0)
        durations = st.floats(20.0, 99.0) | st.floats(100.0, 900.0)
    free = [0.0] * num_nodes
    contacts: list[Contact] = []
    for _ in range(draw(st.integers(1, 30))):
        a = draw(st.integers(0, num_nodes - 1))
        b = (a + draw(st.integers(1, num_nodes - 1))) % num_nodes
        start = max(free[a], free[b]) + draw(gaps)
        free[a] = free[b] = start + draw(durations)
        contacts.append(Contact(start=start, end=free[a], a=a, b=b))
    horizon = max(free) + draw(st.sampled_from((0.0, 1.0, 3_000.0)))
    return ContactTrace(contacts, num_nodes, horizon=horizon)


@st.composite
def mobility_traces(draw) -> ContactTrace:
    """A trace from a registered mobility kind."""
    seed = draw(st.integers(0, 50))
    num_nodes = draw(st.integers(3, 8))
    if draw(st.booleans()):
        return build_mobility(
            "interval",
            seed=seed,
            num_nodes=num_nodes,
            max_encounters_per_node=draw(st.integers(1, 8)),
        )
    return build_mobility(
        "poisson",
        seed=seed,
        num_nodes=num_nodes,
        beta=2e-4,
        horizon=15_000.0,
        duration=draw(st.sampled_from((30.0, 250.0))),
    )


def fault_specs(*, trivial: bool = True) -> st.SearchStrategy[FaultSpec]:
    """Active fault specs of every mode (plus the trivial spec)."""
    churn = st.builds(
        FaultSpec,
        churn_rate=st.floats(1e-4, 2e-3),
        mean_downtime=st.floats(50.0, 2_000.0),
        state_loss=st.sampled_from(STATE_LOSS_MODES),
    )
    outage = st.builds(
        FaultSpec,
        downtime_schedule=st.tuples(
            st.tuples(st.integers(0, 2), st.floats(0.0, 2_999.0), st.floats(3_000.0, 6_000.0))
        ),
        state_loss=st.sampled_from(STATE_LOSS_MODES),
    )
    everything = st.builds(
        FaultSpec,
        churn_rate=st.floats(1e-5, 2e-3),
        mean_downtime=st.floats(50.0, 3_000.0),
        state_loss=st.sampled_from(STATE_LOSS_MODES),
        contact_drop_prob=st.floats(0.0, 0.5),
        interrupt_prob=st.floats(0.0, 0.5),
        transfer_failure_prob=st.floats(0.0, 0.5),
    )
    active = st.one_of(
        churn,
        outage,
        st.builds(FaultSpec, contact_drop_prob=st.floats(0.05, 0.5)),
        st.builds(FaultSpec, interrupt_prob=st.floats(0.05, 0.6)),
        st.builds(FaultSpec, transfer_failure_prob=st.floats(0.05, 0.5)),
        everything,
    )
    return st.one_of(st.just(FaultSpec()), active) if trivial else active


@st.composite
def cells(
    draw,
    protocols: tuple[str, ...] = tuple(PROTOCOLS),
    *,
    faults: st.SearchStrategy[FaultSpec | None] | None = None,
    policies: tuple[str, ...] = DROP_POLICIES,
    traces: st.SearchStrategy[ContactTrace] | None = None,
    capacities: st.SearchStrategy[int | tuple[int, ...]] | None = None,
) -> Cell:
    """One simulation run: trace, protocol, flows, config and seeds.

    ``traces`` and ``capacities`` replace the default trace and (scalar or
    per-node) buffer-capacity draws.
    """
    if traces is None:
        traces = st.one_of(explicit_traces(), mobility_traces())
    trace = draw(traces)
    n = trace.num_nodes
    flows = []
    for flow_id in range(draw(st.integers(1, 3))):
        # later flows may enter mid-run; distinct destinations make the
        # planner's peer-destined-first tier matter
        source = draw(st.integers(0, n - 1))
        flows.append(
            Flow(
                flow_id=flow_id,
                source=source,
                destination=(source + draw(st.integers(1, n - 1))) % n,
                num_bundles=draw(st.integers(1, 5)),
                created_at=draw(st.just(0.0) | st.floats(0.0, trace.horizon / 2)),
            )
        )
    if capacities is None:
        capacities = st.integers(1, 6) | st.lists(
            st.integers(1, 6), min_size=n, max_size=n
        ).map(tuple)
    capacity = draw(capacities)
    tx_time = draw(
        st.just(100.0) | st.lists(st.sampled_from(TX_TIMES), min_size=n, max_size=n).map(tuple)
    )
    if faults is None:
        faults = st.none() | fault_specs()
    config = SimulationConfig(
        buffer_capacity=capacity,
        bundle_tx_time=tx_time,
        drop_policy=draw(st.sampled_from(policies)),
        record_occupancy=draw(st.booleans()),
        faults=draw(faults),
    )
    return Cell(
        trace=trace,
        protocol=PROTOCOLS[draw(st.sampled_from(protocols))],
        flows=tuple(flows),
        config=config,
        seed=draw(st.integers(0, 3)),
        fault_seed=draw(st.integers(0, 3)),
    )


@st.composite
def grids(draw) -> ScenarioSpec:
    """A small sweep: 1-2 protocols × 1-2 loads × 1-2 replications."""
    kind = draw(st.sampled_from(("interval", "poisson")))
    num_nodes = draw(st.integers(4, 8))
    if kind == "interval":
        params = {"num_nodes": num_nodes, "max_encounters_per_node": draw(st.integers(2, 8))}
    else:
        params = {"num_nodes": num_nodes, "beta": 2e-4, "horizon": 15_000.0, "duration": 250.0}
    names = draw(
        st.lists(st.sampled_from(sorted(PROTOCOLS)), min_size=1, max_size=2, unique=True)
    )
    loads = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True))
    return ScenarioSpec(
        mobility=MobilitySpec(kind=kind, params=params),
        protocols=tuple(ProtocolSpec(*PROTOCOLS[name]) for name in names),
        workload=WorkloadSpec(loads=tuple(loads), replications=draw(st.integers(1, 2))),
        name="ladder",
        seed=draw(st.integers(0, 50)),
        shared_trace=draw(st.booleans()),
        buffer_capacity=draw(st.integers(1, 6)),
        drop_policy=draw(st.sampled_from(DROP_POLICIES)),
        faults=draw(st.none() | fault_specs(trivial=False)),
    )
