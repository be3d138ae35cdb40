"""Execution backends for sweep grids.

A sweep is a grid of independent cells — every cell derives its random
streams from ``(master_seed, protocol, load, rep)`` alone (see
:mod:`repro.des.rng`), so cells can run in any order, in any process, and
still produce bit-identical :class:`~repro.core.results.RunResult`s. This
module exploits that: :func:`~repro.core.sweep.run_sweep` hands a list of
:class:`Cell`s to an executor and gets results back *in submission order*,
whatever the completion order was.

Backends:

* :class:`SerialExecutor` — in-process loop; the default, zero overhead.
* :class:`ParallelExecutor` — fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor`. Traces and protocol
  configurations are plain (frozen) dataclasses, so cells pickle cleanly.

Both satisfy the :class:`Executor` protocol, so user-defined backends
(e.g. a cluster dispatcher) drop in via ``run_sweep(..., executor=...)``.

Failure policy
--------------

Long replication campaigns die ugly without one: a single worker crash
used to abort the whole grid and discard every completed cell. Both
backends now accept a :class:`FailurePolicy` controlling

* **retries** — transparent re-execution of cells interrupted by a worker
  process death (``BrokenProcessPool``), with exponential backoff between
  pool rebuilds. Safe because cells are deterministic functions of their
  coordinates: a retried cell returns the exact same ``RunResult``.
* **cell_timeout** — a wall-clock budget per cell; a hung cell is
  declared failed and its worker is reclaimed (parallel backend only —
  the serial backend has no worker to reclaim and ignores the budget).
* **on_error** — ``"abort"`` (default) cancels all queued cells at the
  first permanent failure and raises :class:`CellExecutionError` naming
  the cell's ``(protocol, load, rep)`` coordinates; ``"keep-going"``
  converts the failure into a structured :class:`CellFailure` record and
  completes the rest of the grid, so one bad cell degrades a campaign
  instead of destroying it.
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple, Protocol as TypingProtocol

from repro.validation import require_int, require_nonneg, require_real

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocols.registry import ProtocolConfig
    from repro.core.results import RunResult
    from repro.core.sweep import SweepConfig
    from repro.mobility.contact import ContactTrace

#: Called after each cell completes: (completed_count, total, finished_cell).
ProgressHook = Callable[[int, int, "Cell"], None]

#: Poll interval (s) for the per-cell timeout watchdog.
_TICK = 0.05


class Cell(NamedTuple):
    """One (trace, protocol, load, replication) point of a sweep grid."""

    trace: ContactTrace
    protocol: ProtocolConfig
    load: int
    rep: int
    sweep: SweepConfig


def execute_cell(cell: Cell) -> RunResult:
    """Run one grid cell (module-level so process pools can pickle it)."""
    from repro.core.sweep import run_single

    return run_single(cell.trace, cell.protocol, cell.load, cell.rep, cell.sweep)


#: What actually runs a cell. The default is :func:`execute_cell`; tests
#: substitute fault-injecting wrappers (must be picklable for the
#: parallel backend, i.e. a module-level function).
CellTask = Callable[[Cell], "RunResult"]


@dataclass(frozen=True)
class FailurePolicy:
    """How an executor responds when a grid cell goes wrong.

    Attributes:
        retries: Extra attempts granted to cells interrupted by a worker
            process death (transient ``BrokenProcessPool`` failures). The
            default 0 fails such cells on first interruption. Exceptions
            *raised by* a cell and timeouts are never retried — both are
            deterministic, so a retry would reproduce them.
        backoff: Base delay in seconds before rebuilding a broken worker
            pool; rebuild *n* sleeps ``backoff * 2**n`` (exponential).
        cell_timeout: Wall-clock seconds a single cell may run before it
            is declared hung and failed (parallel backend only; the
            serial backend cannot preempt its own process and ignores
            this). None (default) disables the watchdog.
        on_error: ``"abort"`` cancels queued cells at the first permanent
            failure and raises :class:`CellExecutionError`;
            ``"keep-going"`` records a :class:`CellFailure` and finishes
            the rest of the grid.
    """

    retries: int = 0
    backoff: float = 0.5
    cell_timeout: float | None = None
    on_error: str = "abort"

    def __post_init__(self) -> None:
        require_int("retries", self.retries, 0)
        require_nonneg("backoff", self.backoff)
        if self.cell_timeout is not None:
            require_real("cell_timeout", self.cell_timeout)
            # written as not (valid) so NaN fails too
            if not self.cell_timeout > 0:
                raise ValueError(
                    f"cell_timeout must be positive (or None), got {self.cell_timeout!r}"
                )
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {', '.join(ON_ERROR_MODES)}, "
                f"got {self.on_error!r}"
            )


#: Valid :attr:`FailurePolicy.on_error` modes.
ON_ERROR_MODES = ("abort", "keep-going")


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one grid cell that failed permanently.

    Under ``on_error="keep-going"`` these surface in
    :attr:`repro.core.results.SweepResult.failures` instead of killing
    the campaign; under ``"abort"`` one of them rides inside the raised
    :class:`CellExecutionError`.

    Attributes:
        protocol: Registry name of the cell's protocol (e.g. ``"pq"``).
        protocol_label: Human label (the sweep/journal cell key).
        trace_name: Name of the cell's contact trace.
        load: Offered load of the cell.
        rep: Replication index of the cell.
        kind: ``"exception"`` (the cell raised), ``"worker-death"`` (its
            worker process died), or ``"timeout"`` (it exceeded
            ``cell_timeout``).
        message: Human-readable failure detail.
        attempts: Execution attempts consumed, retries included.
    """

    protocol: str
    protocol_label: str
    trace_name: str
    load: int
    rep: int
    kind: str
    message: str
    attempts: int = 1

    @property
    def coordinates(self) -> str:
        """The cell's grid coordinates, rendered for messages."""
        return f"(protocol={self.protocol!r}, load={self.load}, rep={self.rep})"


class CellExecutionError(RuntimeError):
    """A sweep cell failed permanently under ``on_error="abort"``.

    Carries the :class:`CellFailure` as :attr:`failure`, so callers can
    recover the exact ``(protocol, load, rep)`` coordinates instead of
    fishing them out of a bare worker traceback.
    """

    def __init__(self, failure: CellFailure) -> None:
        super().__init__(
            f"sweep cell {failure.coordinates} failed after "
            f"{failure.attempts} attempt(s): [{failure.kind}] {failure.message}"
        )
        self.failure = failure


def _describe_failure(
    cell: Cell, kind: str, message: str, attempts: int
) -> CellFailure:
    return CellFailure(
        protocol=cell.protocol.protocol_name,
        protocol_label=cell.protocol.label,
        trace_name=cell.trace.name,
        load=cell.load,
        rep=cell.rep,
        kind=kind,
        message=message,
        attempts=attempts,
    )


#: One executed cell's outcome: a result, or (keep-going only) a failure.
CellOutcome = "RunResult | CellFailure"

#: Called as each cell finishes, in completion order, with the cell's
#: index into the submitted sequence — the checkpoint journal's hook.
ResultHook = Callable[[int, Cell, CellOutcome], None]


class _CellRef(NamedTuple):
    """A cell by table indices — what actually crosses the process boundary.

    A sweep's cells share a handful of traces/protocol configs/sweep
    configs; shipping those tables once per worker (via the pool
    initializer) and only these indices per task keeps per-task IPC to a
    few bytes instead of re-pickling the trace for every cell.
    """

    trace_idx: int
    protocol_idx: int
    load: int
    rep: int
    sweep_idx: int


#: Per-worker-process object tables, installed by :func:`_init_worker`.
_WORKER_TABLES: tuple[list, list, list, CellTask | None] | None = None


def _init_worker(
    traces: list, protocols: list, sweeps: list, task: CellTask | None
) -> None:
    global _WORKER_TABLES
    _WORKER_TABLES = (traces, protocols, sweeps, task)


def _execute_ref(ref: _CellRef) -> RunResult:
    assert _WORKER_TABLES is not None, "worker pool initializer did not run"
    traces, protocols, sweeps, task = _WORKER_TABLES
    cell = Cell(
        traces[ref.trace_idx],
        protocols[ref.protocol_idx],
        ref.load,
        ref.rep,
        sweeps[ref.sweep_idx],
    )
    return (task or execute_cell)(cell)


def _intern(obj, table: list, index: dict[int, int]) -> int:
    key = id(obj)
    if key not in index:
        index[key] = len(table)
        table.append(obj)
    return index[key]


def _discard_pool(pool: ProcessPoolExecutor, *, terminate: bool = False) -> None:
    """Abandon a pool without waiting on its (possibly wedged) workers.

    Queued cells are cancelled; running ones are left to finish on their
    own — unless ``terminate`` is set, which additionally kills the
    worker processes (the timeout path: a hung cell would otherwise pin
    its worker, and interpreter exit, forever).
    """
    pool.shutdown(wait=False, cancel_futures=True)
    if terminate:
        # ProcessPoolExecutor exposes no public way to reclaim a wedged
        # worker; terminating its processes is the documented-by-usage
        # escape hatch (the management thread then marks the pool broken
        # and winds itself down).
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead worker race
                pass


class Executor(TypingProtocol):
    """Structural type of a sweep execution backend.

    ``run`` must return one outcome per cell, **in cell order** — the
    order outcomes arrive internally is the backend's business. Outcomes
    are :class:`~repro.core.results.RunResult`s, with
    :class:`CellFailure` records standing in for permanently failed
    cells when the policy is ``on_error="keep-going"``.
    """

    def run(
        self,
        cells: Sequence[Cell],
        *,
        progress: ProgressHook | None = None,
        policy: FailurePolicy | None = None,
        on_result: ResultHook | None = None,
    ) -> list[CellOutcome]: ...


class SerialExecutor:
    """Run every cell in-process, one after the other (the default).

    Args:
        task: Override for what runs a cell (fault-injection seam used
            by the test suite); defaults to :func:`execute_cell`.
    """

    def __init__(self, task: CellTask | None = None) -> None:
        self._task = task

    def run(
        self,
        cells: Sequence[Cell],
        *,
        progress: ProgressHook | None = None,
        policy: FailurePolicy | None = None,
        on_result: ResultHook | None = None,
    ) -> list[CellOutcome]:
        policy = policy or FailurePolicy()
        task = self._task or execute_cell
        results: list[CellOutcome] = []
        total = len(cells)
        for i, cell in enumerate(cells):
            outcome: CellOutcome
            try:
                outcome = task(cell)
            except Exception as exc:
                failure = _describe_failure(
                    cell, "exception", f"{type(exc).__name__}: {exc}", attempts=1
                )
                if policy.on_error == "abort":
                    raise CellExecutionError(failure) from exc
                outcome = failure
            results.append(outcome)
            if on_result is not None:
                on_result(i, cell, outcome)
            if progress is not None:
                progress(i + 1, total, cell)
        return results

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan cells out across worker processes.

    Results are bit-identical to :class:`SerialExecutor` because every
    cell's randomness is derived from the cell's own coordinates, never
    from execution order or shared state. The same property makes
    retries sound: re-running an interrupted cell on a fresh worker
    reproduces its :class:`~repro.core.results.RunResult` exactly.

    Args:
        jobs: Worker processes. Defaults to the machine's CPU count.
        task: Override for what runs a cell (fault-injection seam used
            by the test suite); must be picklable. Defaults to
            :func:`execute_cell`.
    """

    def __init__(self, jobs: int | None = None, task: CellTask | None = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._task = task

    def run(
        self,
        cells: Sequence[Cell],
        *,
        progress: ProgressHook | None = None,
        policy: FailurePolicy | None = None,
        on_result: ResultHook | None = None,
    ) -> list[CellOutcome]:
        policy = policy or FailurePolicy()
        total = len(cells)
        if total == 0:
            return []
        workers = min(self.jobs, total)
        if workers == 1:
            return SerialExecutor(self._task).run(
                cells, progress=progress, policy=policy, on_result=on_result
            )
        traces: list = []
        protocols: list = []
        sweeps: list = []
        t_idx: dict[int, int] = {}
        p_idx: dict[int, int] = {}
        s_idx: dict[int, int] = {}
        refs = [
            _CellRef(
                _intern(c.trace, traces, t_idx),
                _intern(c.protocol, protocols, p_idx),
                c.load,
                c.rep,
                _intern(c.sweep, sweeps, s_idx),
            )
            for c in cells
        ]
        results: list[CellOutcome | None] = [None] * total
        attempts = [0] * total
        remaining = set(range(total))
        done_count = 0
        rebuilds = 0
        pool: ProcessPoolExecutor | None = None
        futures: dict = {}
        started: dict = {}
        # every future reports here when it finishes, so each wake-up costs
        # O(finished) — waiting on the whole pending set each time would
        # cost O(pending), quadratic over a grid
        finished: queue.SimpleQueue[Future] = queue.SimpleQueue()

        def finish(i: int, outcome: CellOutcome) -> None:
            nonlocal done_count
            results[i] = outcome
            remaining.discard(i)
            done_count += 1
            if on_result is not None:
                on_result(i, cells[i], outcome)
            if progress is not None:
                progress(done_count, total, cells[i])

        def fail(i: int, kind: str, message: str) -> CellFailure:
            """Make the failure record; raise or record per the policy."""
            failure = _describe_failure(cells[i], kind, message, attempts[i])
            if policy.on_error == "abort":
                raise CellExecutionError(failure)
            finish(i, failure)
            return failure

        try:
            while remaining:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(workers, len(remaining)),
                        initializer=_init_worker,
                        initargs=(traces, protocols, sweeps, self._task),
                    )
                    futures = {
                        pool.submit(_execute_ref, refs[i]): i
                        for i in sorted(remaining)
                    }
                    for fut in futures:
                        fut.add_done_callback(finished.put)
                    started = {}
                tick = None if policy.cell_timeout is None else _TICK
                done: list[Future] = []
                try:
                    done.append(finished.get(timeout=tick))
                    while True:
                        done.append(finished.get_nowait())
                except queue.Empty:
                    pass
                now = time.monotonic()
                if policy.cell_timeout is not None:
                    # a cell's clock starts when its task starts *running*,
                    # not when it was queued behind other cells
                    for fut in futures:
                        if fut not in started and fut.running():
                            started[fut] = now
                pool_broken = False
                for fut in done:
                    i = futures.pop(fut, None)
                    if i is None:
                        # a future of a pool already discarded
                        continue
                    started.pop(fut, None)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        # the pool is dead; every unfinished future fails
                        # the same way — handle them wholesale below
                        pool_broken = True
                    except Exception as exc:
                        attempts[i] += 1
                        try:
                            fail(i, "exception", f"{type(exc).__name__}: {exc}")
                        except CellExecutionError as wrapped:
                            raise wrapped from exc
                    else:
                        finish(i, result)
                if pool_broken:
                    _discard_pool(pool)
                    pool, futures, started = None, {}, {}
                    # every unfinished cell was interrupted mid-flight;
                    # charge each an attempt and retry the survivors on a
                    # fresh pool after an exponential-backoff pause
                    for i in sorted(remaining):
                        attempts[i] += 1
                        if attempts[i] > policy.retries:
                            fail(
                                i,
                                "worker-death",
                                "worker process died while the cell was in "
                                "flight (BrokenProcessPool)",
                            )
                    if remaining:
                        delay = policy.backoff * (2**rebuilds)
                        rebuilds += 1
                        if delay > 0:
                            time.sleep(delay)
                    continue
                if policy.cell_timeout is not None:
                    expired = [
                        fut
                        for fut, t0 in started.items()
                        if fut in futures and now - t0 >= policy.cell_timeout
                    ]
                    if expired:
                        # hung workers cannot be reclaimed individually:
                        # tear the pool down (terminating its processes)
                        # and resubmit the unfinished cells on a fresh one
                        # — torn down even when fail() raises (abort), so
                        # a wedged worker never outlives the campaign
                        try:
                            for fut in expired:
                                i = futures.pop(fut)
                                attempts[i] += 1
                                fail(
                                    i,
                                    "timeout",
                                    f"cell exceeded cell_timeout="
                                    f"{policy.cell_timeout}s",
                                )
                        finally:
                            _discard_pool(pool, terminate=True)
                            pool, futures, started = None, {}, {}
            if pool is not None:
                # every cell finished, so nothing is queued: this only
                # stops the idle workers and the pool's manager thread
                pool.shutdown(wait=True)
                pool = None
        finally:
            if pool is not None:
                # first-failure abort: cancel queued cells, do NOT wait
                # for in-flight ones (the old shutdown(wait=True) ran the
                # whole remaining grid before surfacing the error)
                _discard_pool(pool)
        return [r for r in results if r is not None]

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def make_executor(jobs: int | None) -> Executor:
    """Executor for a ``--jobs`` value: serial for None/1, parallel above."""
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)
