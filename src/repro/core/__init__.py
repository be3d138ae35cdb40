"""The paper's primary contribution: the unified evaluation framework.

Everything needed to run one protocol on one mobility input and measure the
paper's four metrics lives here:

* data plane: :mod:`~repro.core.bundle`, :mod:`~repro.core.buffer`,
  :mod:`~repro.core.policies` (pluggable buffer drop policies),
  :mod:`~repro.core.node`
* policy plane: :mod:`~repro.core.protocols` (the 5 baselines and 3
  enhancements)
* mechanism: :mod:`~repro.core.session` (encounter semantics),
  :mod:`~repro.core.planner` (transfer selection),
  :mod:`~repro.core.simulation` (the DES driver)
* measurement: :mod:`~repro.core.metrics` (exact time-weighted integrals),
  :mod:`~repro.core.results`
* experiment engine: :mod:`~repro.core.workload`, :mod:`~repro.core.sweep`,
  :mod:`~repro.core.executors` (serial / multi-process sweep backends)
"""

from repro.core.buffer import BufferFullError, RelayStore
from repro.core.executors import (
    Cell,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.bundle import (
    NO_EXPIRY,
    Bundle,
    BundleId,
    StoredBundle,
    make_flow_bundles,
)
from repro.core.knowledge import (
    CumulativeKnowledgeStore,
    KnowledgeStore,
    exchange_control,
)
from repro.core.metrics import MetricsCollector, TimeWeightedAccumulator
from repro.core.node import EncounterHistory, Node
from repro.core.policies import (
    DropPolicy,
    drop_policy_names,
    make_drop_policy,
    register_drop_policy,
)
from repro.core.planner import IncrementalPlanner
from repro.core.results import RunResult, Series, SeriesPoint, SweepResult
from repro.core.session import ContactSession
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sweep import (
    SweepConfig,
    build_cells,
    constant_trace,
    run_single,
    run_sweep,
)
from repro.core.workload import (
    PAPER_LOADS,
    PAPER_REPLICATIONS,
    Flow,
    draw_endpoints,
    multi_flow,
    single_flow,
    total_offered,
)

__all__ = [
    "NO_EXPIRY",
    "Bundle",
    "BundleId",
    "StoredBundle",
    "make_flow_bundles",
    "BufferFullError",
    "RelayStore",
    "DropPolicy",
    "drop_policy_names",
    "make_drop_policy",
    "register_drop_policy",
    "Node",
    "EncounterHistory",
    "MetricsCollector",
    "TimeWeightedAccumulator",
    "ContactSession",
    "KnowledgeStore",
    "CumulativeKnowledgeStore",
    "exchange_control",
    "IncrementalPlanner",
    "Simulation",
    "SimulationConfig",
    "RunResult",
    "Series",
    "SeriesPoint",
    "SweepResult",
    "SweepConfig",
    "run_sweep",
    "run_single",
    "build_cells",
    "constant_trace",
    "Cell",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "Flow",
    "single_flow",
    "multi_flow",
    "draw_endpoints",
    "total_offered",
    "PAPER_LOADS",
    "PAPER_REPLICATIONS",
]
