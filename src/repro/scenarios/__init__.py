"""Declarative scenarios: experiments as data, execution as a backend.

This package is the configuration layer of the library. A
:class:`ScenarioSpec` captures one full experiment — mobility input,
protocol set, sweep grid, seeds, mechanism constants — as a plain,
JSON-round-trippable value; :meth:`ScenarioSpec.run` executes it on any
:class:`~repro.core.executors.Executor` backend, serially or across worker
processes, with bit-identical results either way.

Two registries make the spec vocabulary open-ended:

* the **mobility registry** (:func:`register_mobility`) maps ``kind``
  strings to trace builders — built-ins cover ``campus``, ``rwp``,
  ``classic_rwp``, ``interval`` and ``trace_file``;
* the protocol registry (:mod:`repro.core.protocols`) resolves
  :class:`ProtocolSpec` names.

See ``examples/scenario_workflow.py`` and ``python -m repro run-scenario``
for the file-driven workflow.
"""

from repro.core.executors import (
    Cell,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.scenarios.spec import (
    MobilitySpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_mobility,
    mobility_names,
    register_mobility,
)

__all__ = [
    "MobilitySpec",
    "ProtocolSpec",
    "ScenarioSpec",
    "WorkloadSpec",
    "register_mobility",
    "build_mobility",
    "mobility_names",
    "Cell",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
]
