"""Replicated load sweeps — the experiment engine behind every figure.

The paper's procedure (Section IV): for each load k ∈ {5, 10, …, 50} run 10
replications, re-drawing the (source, destination) pair each run, and
average. Comparisons between protocols use **common random numbers**: the
endpoint draw for (load, replication) is protocol-independent, so every
protocol faces the same sequence of workloads — variance reduction the
paper gets implicitly by replaying the same trace.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from pathlib import Path

from repro.core.checkpoint import TRACE_COLUMNS, CheckpointJournal, cell_key
from repro.core.executors import (
    Cell,
    CellFailure,
    CellOutcome,
    Executor,
    FailurePolicy,
    SerialExecutor,
)
from repro.core.protocols.registry import ProtocolConfig
from repro.core.results import RunResult, SweepResult
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.workload import PAPER_LOADS, PAPER_REPLICATIONS, single_flow
from repro.des.rng import derive_seed
from repro.mobility.contact import ContactTrace

#: Builds (or returns a cached) trace for a replication index.
TraceFactory = Callable[[int], ContactTrace]


@dataclass(frozen=True)
class SweepConfig:
    """Sweep shape.

    Attributes:
        loads: Load values to sweep (paper: 5..50 step 5).
        replications: Runs per load (paper: 10).
        master_seed: Root of every random stream in the sweep.
        shared_trace: True (paper's trace study): one trace reused by all
            runs; False: a fresh trace per replication index (the factory
            receives the replication index).
    """

    loads: Sequence[int] = PAPER_LOADS
    replications: int = PAPER_REPLICATIONS
    master_seed: int = 0
    shared_trace: bool = True
    sim: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if not self.loads:
            raise ValueError("loads must be non-empty")
        if any(load < 1 for load in self.loads):
            raise ValueError("loads must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


def _is_analytic_model(trace: object) -> bool:
    """True for an analytic contact model, without importing the analytic tier.

    Only :mod:`repro.analytic.surrogate` builds such a model, so while that
    module is not loaded no trace can be one: DES sweeps never pay its
    import.
    """
    surrogate = sys.modules.get("repro.analytic.surrogate")
    return surrogate is not None and isinstance(trace, surrogate.AnalyticContactModel)


def constant_trace(trace: ContactTrace) -> TraceFactory:
    """Trace factory that always returns the same trace (paper's setup)."""
    return lambda rep: trace


def run_single(
    trace: ContactTrace,
    protocol: ProtocolConfig,
    load: int,
    rep: int,
    sweep: SweepConfig,
) -> RunResult:
    """One run of the sweep grid, with derived, reproducible seeds.

    Endpoint draws depend on (master_seed, load, rep) only — not on the
    protocol — so all protocols see identical workloads (common random
    numbers). Protocol-internal randomness (P-Q coins) additionally keys on
    the protocol name. The endpoint draw is also engine-independent:
    ``engine="ode"`` cells face the exact same flow sequence as their DES
    twins, which is what makes the cross-validation residuals
    (:mod:`repro.analytic.calibration`) pure model error.
    """
    endpoint_rng = np.random.default_rng(
        derive_seed(sweep.master_seed, "workload", load, rep)
    )
    flows = single_flow(trace.num_nodes, load, endpoint_rng)
    run_seed = int(
        derive_seed(
            sweep.master_seed, "run", protocol.protocol_name, load, rep
        ).generate_state(1)[0]
    )
    if sweep.sim.engine == "ode":
        # Lazy import: repro.analytic.surrogate imports this module's
        # siblings, and only ODE cells need it.
        from repro.analytic.surrogate import surrogate_run

        return surrogate_run(trace, protocol, flows, config=sweep.sim, seed=run_seed)
    if _is_analytic_model(trace):
        raise ValueError(
            "an analytic contact model has no contacts for the event-driven "
            "engine; run this cell with engine='ode'"
        )
    # The fault environment keys on (load, rep) only — like the endpoint
    # draw, and unlike the run seed — so every protocol at the same grid
    # coordinates faces the identical crashes, outages, and link losses
    # (common random numbers across the protocol axis).
    fault_seed = None
    if sweep.sim.active_faults is not None:
        fault_seed = int(
            derive_seed(sweep.master_seed, "faults", load, rep).generate_state(1)[0]
        )
    sim = Simulation(
        trace, protocol, flows, config=sweep.sim, seed=run_seed, fault_seed=fault_seed
    )
    return sim.run()


def build_cells(
    trace_factory: TraceFactory | ContactTrace,
    protocols: Sequence[ProtocolConfig],
    sweep: SweepConfig,
) -> list[Cell]:
    """Materialise the (protocol × load × replication) grid as cells.

    Traces are built up front (once if shared, once per replication index
    otherwise) so cells are self-contained and can ship to worker processes.
    """
    if isinstance(trace_factory, ContactTrace):
        factory = constant_trace(trace_factory)
    else:
        factory = trace_factory
    trace_cache: dict[int, ContactTrace] = {}

    def trace_for(rep: int) -> ContactTrace:
        key = 0 if sweep.shared_trace else rep
        if key not in trace_cache:
            trace_cache[key] = factory(key)
        return trace_cache[key]

    return [
        Cell(trace_for(rep), protocol, load, rep, sweep)
        for protocol in protocols
        for load in sweep.loads
        for rep in range(sweep.replications)
    ]


def campaign_fingerprint(
    cells: Sequence[Cell], sweep: SweepConfig
) -> dict[str, object]:
    """JSON-safe identity of a sweep campaign, for the checkpoint manifest.

    Two invocations that would produce different grids — different seed,
    loads, replications, protocol set, traces, engine, or fault
    environment — must produce different fingerprints, so a ``--resume``
    against the wrong campaign directory is refused instead of silently
    mixing results (e.g. faulted and unfaulted cells).

    Traces are pinned by content (see :func:`_trace_fingerprint`), not by
    name: a trace name such as ``rwp-subscriber(seed=…)`` does not carry
    the mobility parameters, and a resume must not accept a different
    population under the same seed. Content pinning is also what makes a
    trace loaded from the campaign's trace store provably the one the
    journaled cells ran on.

    The execution ``kernel`` is deliberately **excluded**: the contact
    sweep's two paths are byte-identical, so a campaign may be
    resumed under a different kernel setting without changing a single
    result — the fingerprint identifies *what* is computed, not how
    fast.
    """
    protocols: dict[str, None] = {}
    traces: dict[int, dict[str, object]] = {}
    for cell in cells:
        protocols.setdefault(cell.protocol.label, None)
        if id(cell.trace) not in traces:
            traces[id(cell.trace)] = _trace_fingerprint(cell.trace)
    active = sweep.sim.active_faults
    return {
        "master_seed": sweep.master_seed,
        "loads": [int(x) for x in sweep.loads],
        "replications": sweep.replications,
        "shared_trace": sweep.shared_trace,
        "engine": sweep.sim.engine,
        "protocols": list(protocols),
        "traces": list(traces.values()),
        # a trivial spec normalises to None: it runs the identical grid
        "faults": None if active is None else active.to_dict(),
    }


def _trace_fingerprint(trace: ContactTrace) -> dict[str, object]:
    """One trace's entry in the campaign fingerprint.

    Name, population, horizon, contact count, and a sha256 over the
    ``(starts, ends, a, b)`` columns as little-endian float64, float64,
    int64, int64. An analytic contact model has no contacts to digest and
    keeps a name-only entry.
    """
    if _is_analytic_model(trace):
        return {"name": trace.name}
    digest = hashlib.sha256()
    for (_, dtype), column in zip(TRACE_COLUMNS, trace.contact_arrays(), strict=True):
        digest.update(column.astype(dtype, copy=False).tobytes())
    return {
        "name": trace.name,
        "num_nodes": int(trace.num_nodes),
        "horizon": float(trace.horizon),
        "contacts": len(trace),
        "sha256": digest.hexdigest(),
    }


def run_sweep(
    trace_factory: TraceFactory | ContactTrace,
    protocols: Sequence[ProtocolConfig],
    sweep: SweepConfig | None = None,
    *,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
    policy: FailurePolicy | None = None,
    checkpoint: CheckpointJournal | str | Path | None = None,
) -> SweepResult:
    """Run the full (protocol × load × replication) grid.

    Args:
        trace_factory: A :class:`ContactTrace` (shared by all runs) or a
            callable mapping replication index → trace.
        protocols: Protocol configurations to compare.
        sweep: Sweep shape; defaults to the paper's.
        executor: Execution backend; defaults to
            :class:`~repro.core.executors.SerialExecutor`. Pass a
            :class:`~repro.core.executors.ParallelExecutor` to fan the grid
            out over worker processes — results are bit-identical because
            every cell's randomness derives from its own coordinates.
        progress: Optional callback receiving one ``[done/total]`` line per
            completed (protocol, load, replication) cell. With a parallel
            executor, lines arrive in completion order.
        policy: Failure policy (retries / per-cell timeout / abort vs
            keep-going); defaults to
            :class:`~repro.core.executors.FailurePolicy`'s abort-on-first-
            failure behaviour.
        checkpoint: Campaign directory (or a prepared
            :class:`~repro.core.checkpoint.CheckpointJournal`) for
            crash-safe per-cell journaling. Cells already journaled are
            *not* re-executed: their results are restored from disk, which
            is exact because every cell's randomness derives from its own
            coordinates. Pass a ``CheckpointJournal(dir, resume=True)`` to
            continue a killed campaign.

    Returns:
        A :class:`SweepResult` with one :class:`RunResult` per completed
        grid cell, in (protocol, load, replication) order regardless of
        backend, and — under ``on_error="keep-going"`` — one structured
        :class:`~repro.core.executors.CellFailure` per failed cell in
        :attr:`~repro.core.results.SweepResult.failures`.
    """
    sweep = sweep or SweepConfig()
    if not protocols:
        raise ValueError("at least one protocol is required")
    cells = build_cells(trace_factory, protocols, sweep)

    outcomes: list[CellOutcome | None] = [None] * len(cells)
    pending = list(range(len(cells)))
    journal: CheckpointJournal | None = None
    if checkpoint is not None:
        journal = (
            checkpoint
            if isinstance(checkpoint, CheckpointJournal)
            else CheckpointJournal(checkpoint)
        )
        journal.begin(campaign_fingerprint(cells, sweep))
        pending = []
        for i, cell in enumerate(cells):
            cached = journal.get(cell_key(cell))
            if cached is None:
                pending.append(i)
            else:
                outcomes[i] = cached
        if progress is not None and len(pending) < len(cells):
            progress(
                f"resume: restored {len(cells) - len(pending)} journaled "
                f"cell(s) from {journal.directory}"
            )

    if sweep.sim.engine == "ode" and pending:
        # the exact-regime chains the pending cells read, integrated in one
        # batch before any cell runs (a forked pool's workers inherit
        # them); a cell would otherwise solve its chain as a batch of one
        from repro.analytic.surrogate import solve_exact_chains

        solve_exact_chains((cells[i].trace, cells[i].protocol, sweep.sim) for i in pending)

    hook = None
    if progress is not None:
        report = progress

        def hook(done: int, total: int, cell: Cell) -> None:
            report(
                f"[{done}/{total}] {cell.protocol.label}: "
                f"load={cell.load} rep={cell.rep} done"
            )

    on_result = None
    if journal is not None:
        bound = journal

        def on_result(idx: int, cell: Cell, outcome: CellOutcome) -> None:
            # failures are deliberately not journaled: a resumed campaign
            # re-attempts them instead of replaying the failure
            if isinstance(outcome, RunResult):
                bound.record(cell_key(cell), outcome)

    backend = executor or SerialExecutor()
    try:
        executed = backend.run(
            [cells[i] for i in pending],
            progress=hook,
            policy=policy,
            on_result=on_result,
        )
    finally:
        if journal is not None:
            journal.close()
    for slot, outcome in zip(pending, executed, strict=True):
        outcomes[slot] = outcome

    result = SweepResult()
    for outcome in outcomes:
        if isinstance(outcome, CellFailure):
            result.failures.append(outcome)
        else:
            assert outcome is not None, "executor left a cell without outcome"
            result.runs.append(outcome)
    return result
