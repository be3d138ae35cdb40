"""Fault injection: worker death, hung cells, retries, checkpoint resume.

The injected tasks must be module-level functions — the parallel backend
pickles them into worker processes. They read their target cell from
environment variables (inherited by forked workers), so tests arm them
with ``monkeypatch.setenv`` before building the pool.

Kill-style tasks (``os._exit``) must only ever run under a parallel
executor with at least two cells: the serial fallback would take the
pytest process down with it.
"""

import os
import time
from pathlib import Path

import pytest

from repro.core.checkpoint import CheckpointJournal, cell_key
from repro.core.executors import (
    CellExecutionError,
    CellFailure,
    FailurePolicy,
    ParallelExecutor,
    SerialExecutor,
    execute_cell,
)
from repro.core.protocols import make_protocol_config
from repro.core.sweep import SweepConfig, build_cells, run_sweep
from tests.helpers import micro_trace

ROWS = [
    (100.0, 350.0, 0, 1),
    (1_000.0, 1_250.0, 1, 2),
    (2_000.0, 2_250.0, 2, 3),
    (3_000.0, 3_250.0, 0, 3),
]

#: "load,rep" of the cell the injected task should sabotage.
FAULT_CELL_ENV = "REPRO_TEST_FAULT_CELL"
#: Marker directory for one-shot faults (second attempt succeeds).
FAULT_DIR_ENV = "REPRO_TEST_FAULT_DIR"


def _is_fault_cell(cell) -> bool:
    spec = os.environ.get(FAULT_CELL_ENV)
    if not spec:
        return False
    load, rep = spec.split(",")
    return cell.load == int(load) and cell.rep == int(rep)


def kill_worker_once(cell):
    """Die with the worker process — but only on the first attempt."""
    if _is_fault_cell(cell):
        marker = Path(os.environ[FAULT_DIR_ENV]) / f"died-{cell.load}-{cell.rep}"
        if not marker.exists():
            marker.touch()
            os._exit(17)
    return execute_cell(cell)


def kill_worker_always(cell):
    """Die with the worker process on every attempt (a permanent fault)."""
    if _is_fault_cell(cell):
        os._exit(17)
    return execute_cell(cell)


def hang_cell(cell):
    """Wedge the target cell far past any reasonable cell_timeout."""
    if _is_fault_cell(cell):
        time.sleep(30.0)
    return execute_cell(cell)


def raise_in_cell(cell):
    """Deterministic in-cell exception (never retried by policy)."""
    if _is_fault_cell(cell):
        raise ValueError("injected fault")
    return execute_cell(cell)


@pytest.fixture
def trace():
    return micro_trace(ROWS, 4, horizon=20_000.0)


@pytest.fixture
def grid(trace):
    cfg = SweepConfig(loads=(2, 3), replications=2, master_seed=11)
    protos = [make_protocol_config("pure")]
    return build_cells(trace, protos, cfg), cfg, protos


@pytest.fixture
def fault_cell(monkeypatch, tmp_path):
    monkeypatch.setenv(FAULT_CELL_ENV, "3,1")
    monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path))
    return (3, 1)


KEEP_GOING = FailurePolicy(on_error="keep-going", backoff=0.0)


class TestSerialFailures:
    def test_keep_going_records_failure_and_finishes(self, grid, fault_cell):
        cells, _, _ = grid
        baseline = SerialExecutor().run(cells)
        outcomes = SerialExecutor(task=raise_in_cell).run(cells, policy=KEEP_GOING)
        assert len(outcomes) == len(cells)
        failures = [o for o in outcomes if isinstance(o, CellFailure)]
        assert [(f.load, f.rep, f.kind) for f in failures] == [(3, 1, "exception")]
        assert "injected fault" in failures[0].message
        survivors = [o for o in outcomes if not isinstance(o, CellFailure)]
        assert survivors == [
            b for b, c in zip(baseline, cells, strict=True) if (c.load, c.rep) != (3, 1)
        ]

    def test_abort_names_cell_coordinates(self, grid, fault_cell):
        cells, _, _ = grid
        with pytest.raises(CellExecutionError) as err:
            SerialExecutor(task=raise_in_cell).run(cells)
        failure = err.value.failure
        assert (failure.load, failure.rep) == (3, 1)
        assert failure.kind == "exception"
        assert "load=3" in str(err.value) and "rep=1" in str(err.value)


class TestParallelWorkerDeath:
    def test_retry_recovers_bit_identically(self, grid, fault_cell):
        cells, _, _ = grid
        baseline = SerialExecutor().run(cells)
        outcomes = ParallelExecutor(jobs=2, task=kill_worker_once).run(
            cells, policy=FailurePolicy(retries=2, backoff=0.0)
        )
        assert outcomes == baseline  # retried cell reproduces its result

    def test_permanent_death_keep_going_completes_grid(self, grid, fault_cell):
        cells, _, _ = grid
        outcomes = ParallelExecutor(jobs=2, task=kill_worker_always).run(
            cells, policy=KEEP_GOING
        )
        assert len(outcomes) == len(cells)
        failures = [o for o in outcomes if isinstance(o, CellFailure)]
        # the saboteur must be among the failures; innocent cells that were
        # in flight when the pool broke may fail too (they are
        # indistinguishable from the culprit), but the grid still finishes
        assert any(
            (f.load, f.rep) == (3, 1) and f.kind == "worker-death"
            for f in failures
        )

    def test_abort_on_worker_death_names_a_cell(self, grid, fault_cell):
        cells, _, _ = grid
        with pytest.raises(CellExecutionError) as err:
            ParallelExecutor(jobs=2, task=kill_worker_always).run(
                cells, policy=FailurePolicy(backoff=0.0)
            )
        assert err.value.failure.kind == "worker-death"

    def test_exception_keep_going_in_parallel(self, grid, fault_cell):
        cells, _, _ = grid
        baseline = SerialExecutor().run(cells)
        outcomes = ParallelExecutor(jobs=2, task=raise_in_cell).run(
            cells, policy=KEEP_GOING
        )
        failures = [o for o in outcomes if isinstance(o, CellFailure)]
        assert [(f.load, f.rep, f.kind) for f in failures] == [(3, 1, "exception")]
        survivors = [o for o in outcomes if not isinstance(o, CellFailure)]
        assert survivors == [
            b for b, c in zip(baseline, cells, strict=True) if (c.load, c.rep) != (3, 1)
        ]


class TestCellTimeout:
    def test_hung_cell_fails_with_timeout_and_rest_complete(
        self, grid, fault_cell
    ):
        cells, _, _ = grid
        baseline = SerialExecutor().run(cells)
        t0 = time.monotonic()
        outcomes = ParallelExecutor(jobs=2, task=hang_cell).run(
            cells,
            policy=FailurePolicy(
                on_error="keep-going", cell_timeout=0.5, backoff=0.0
            ),
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 20.0  # nowhere near the saboteur's 30 s sleep
        failures = [o for o in outcomes if isinstance(o, CellFailure)]
        assert [(f.load, f.rep, f.kind) for f in failures] == [(3, 1, "timeout")]
        survivors = [o for o in outcomes if not isinstance(o, CellFailure)]
        assert survivors == [
            b for b, c in zip(baseline, cells, strict=True) if (c.load, c.rep) != (3, 1)
        ]

    def test_hung_cell_abort_reclaims_worker(self, grid, fault_cell):
        cells, _, _ = grid
        t0 = time.monotonic()
        with pytest.raises(CellExecutionError) as err:
            ParallelExecutor(jobs=2, task=hang_cell).run(
                cells, policy=FailurePolicy(cell_timeout=0.5, backoff=0.0)
            )
        assert time.monotonic() - t0 < 20.0  # wedged worker was terminated
        assert err.value.failure.kind == "timeout"
        assert (err.value.failure.load, err.value.failure.rep) == (3, 1)

    def test_serial_ignores_timeout(self, grid):
        cells, _, _ = grid
        outcomes = SerialExecutor().run(
            cells, policy=FailurePolicy(cell_timeout=0.001)
        )
        assert all(not isinstance(o, CellFailure) for o in outcomes)


class TestCheckpointResume:
    def test_resume_after_abort_is_bit_identical(
        self, grid, fault_cell, tmp_path
    ):
        cells, cfg, protos = grid
        trace = cells[0].trace
        baseline = run_sweep(trace, protos, cfg)

        camp = tmp_path / "camp"
        with pytest.raises(CellExecutionError):
            run_sweep(
                trace,
                protos,
                cfg,
                executor=SerialExecutor(task=raise_in_cell),
                checkpoint=camp,
            )

        # resume: journaled cells must restore from disk, not re-execute
        executed = []

        def spy(cell):
            executed.append(cell_key(cell))
            return execute_cell(cell)

        lines = []
        resumed = run_sweep(
            trace,
            protos,
            cfg,
            executor=SerialExecutor(task=spy),
            progress=lines.append,
            checkpoint=CheckpointJournal(camp, resume=True),
        )
        assert repr(resumed.runs) == repr(baseline.runs)  # bit-identical
        assert not resumed.failures
        # serial order is (load, rep): (2,0) (2,1) (3,0) crash at (3,1)
        assert [(load, rep) for _, load, rep in executed] == [(3, 1)]
        assert lines[0].startswith("resume: restored 3 journaled cell(s)")

    def test_keep_going_failures_reattempted_on_resume(
        self, grid, fault_cell, tmp_path
    ):
        cells, cfg, protos = grid
        trace = cells[0].trace
        baseline = run_sweep(trace, protos, cfg)

        camp = tmp_path / "camp"
        first = run_sweep(
            trace,
            protos,
            cfg,
            executor=SerialExecutor(task=raise_in_cell),
            policy=KEEP_GOING,
            checkpoint=camp,
        )
        assert first.failures  # the injected cell failed, not journaled

        resumed = run_sweep(
            trace,
            protos,
            cfg,
            checkpoint=CheckpointJournal(camp, resume=True),
        )
        assert not resumed.failures
        assert repr(resumed.runs) == repr(baseline.runs)

    def test_parallel_death_retry_with_checkpoint(
        self, grid, fault_cell, tmp_path
    ):
        cells, cfg, protos = grid
        trace = cells[0].trace
        baseline = run_sweep(trace, protos, cfg)
        camp = tmp_path / "camp"
        result = run_sweep(
            trace,
            protos,
            cfg,
            executor=ParallelExecutor(jobs=2, task=kill_worker_once),
            policy=FailurePolicy(retries=2, backoff=0.0),
            checkpoint=camp,
        )
        assert repr(result.runs) == repr(baseline.runs)
        journal = CheckpointJournal(camp, resume=True)
        from repro.core.sweep import campaign_fingerprint

        journal.begin(campaign_fingerprint(cells, cfg))
        assert len(journal) == len(cells)  # every cell journaled exactly once
        journal.close()

    def test_wrong_campaign_refused(self, grid, tmp_path):
        cells, cfg, protos = grid
        trace = cells[0].trace
        camp = tmp_path / "camp"
        run_sweep(trace, protos, cfg, checkpoint=camp)
        from repro.core.checkpoint import CheckpointError

        other = SweepConfig(loads=(2, 3), replications=2, master_seed=99)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            run_sweep(
                trace,
                protos,
                other,
                checkpoint=CheckpointJournal(camp, resume=True),
            )
