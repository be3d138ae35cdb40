"""repro — a unified study of epidemic routing protocols for DTNs.

A from-scratch reproduction of Feng & Chin, *"A Unified Study of Epidemic
Routing Protocols and their Enhancements"* (IPDPSW 2012): a contact-driven
discrete-event simulator, the paper's five baseline epidemic protocols and
three enhancements, two mobility substrates (a synthetic campus trace
standing in for the CRAWDAD Haggle dataset, and the paper's subscriber-point
Random-Way-Point model), and an experiment harness that regenerates every
figure and table of the evaluation.

Quickstart::

    from repro import (
        CampusTraceGenerator, SweepConfig, run_sweep, make_protocol_config,
    )

    trace = CampusTraceGenerator(seed=7).generate()
    result = run_sweep(
        trace,
        [make_protocol_config("pq"), make_protocol_config("ttl", ttl=300.0)],
        SweepConfig(loads=(5, 25, 50), replications=3, master_seed=7),
    )
    for series in result.delivery_ratio_series():
        print(series.label, series.values)

The declarative entry point — the same experiment as data, runnable from a
JSON file and parallelisable across worker processes with bit-identical
results::

    from repro import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec

    spec = ScenarioSpec(
        name="campus-pq-vs-ttl",
        mobility=MobilitySpec("campus"),
        protocols=(
            ProtocolSpec("pq"),
            ProtocolSpec("ttl", {"ttl": 300.0}),
        ),
        workload=WorkloadSpec(loads=(5, 25, 50), replications=3),
        seed=7,
    )
    spec.save("scenario.json")                  # share / version it
    result = ScenarioSpec.load("scenario.json").run(jobs=4)

``python -m repro run-scenario scenario.json --jobs 4`` runs the same file
from the shell. New mobility models become first-class scenario inputs via
:func:`repro.register_mobility`; new protocols via
:func:`repro.register_protocol`.

See ``examples/`` for runnable scenarios and ``python -m repro`` for the
experiment CLI.
"""

from repro.core import (
    PAPER_LOADS,
    PAPER_REPLICATIONS,
    Bundle,
    BundleId,
    Cell,
    DropPolicy,
    Executor,
    Flow,
    ParallelExecutor,
    RunResult,
    SerialExecutor,
    Series,
    Simulation,
    SimulationConfig,
    SweepConfig,
    SweepResult,
    drop_policy_names,
    make_drop_policy,
    make_executor,
    register_drop_policy,
    run_single,
    run_sweep,
    single_flow,
)
from repro.core.protocols import (
    default_baseline_configs,
    default_enhanced_configs,
    make_protocol_config,
    protocol_names,
    register_protocol,
)
from repro.mobility import (
    CampusTraceConfig,
    CampusTraceGenerator,
    ClassicRWP,
    Contact,
    ContactTrace,
    IntervalScenarioConfig,
    RWPConfig,
    SubscriberPointRWP,
    compute_trace_stats,
    generate_interval_scenario,
    read_contact_trace,
    read_haggle_trace,
    write_contact_trace,
)
from repro.scenarios import (
    MobilitySpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_mobility,
    mobility_names,
    register_mobility,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Bundle",
    "BundleId",
    "Flow",
    "RunResult",
    "Series",
    "Simulation",
    "SimulationConfig",
    "SweepConfig",
    "SweepResult",
    "run_single",
    "run_sweep",
    "single_flow",
    "PAPER_LOADS",
    "PAPER_REPLICATIONS",
    # buffer drop policies
    "DropPolicy",
    "drop_policy_names",
    "make_drop_policy",
    "register_drop_policy",
    # executors
    "Cell",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    # scenarios
    "MobilitySpec",
    "ProtocolSpec",
    "ScenarioSpec",
    "WorkloadSpec",
    "register_mobility",
    "build_mobility",
    "mobility_names",
    # protocols
    "default_baseline_configs",
    "default_enhanced_configs",
    "make_protocol_config",
    "protocol_names",
    "register_protocol",
    # mobility
    "Contact",
    "ContactTrace",
    "CampusTraceConfig",
    "CampusTraceGenerator",
    "ClassicRWP",
    "RWPConfig",
    "SubscriberPointRWP",
    "IntervalScenarioConfig",
    "generate_interval_scenario",
    "compute_trace_stats",
    "read_contact_trace",
    "read_haggle_trace",
    "write_contact_trace",
]
