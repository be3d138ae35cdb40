"""Execution backends: ordering, progress accounting, parallel determinism."""

import multiprocessing

import pytest

from repro.core.executors import (
    Cell,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.protocols import make_protocol_config
from repro.core.sweep import SweepConfig, build_cells, run_sweep
from repro.experiments.runner import SWEEP_FAMILIES, ExperimentRunner
from tests.helpers import micro_trace

ROWS = [
    (100.0, 350.0, 0, 1),
    (1_000.0, 1_250.0, 1, 2),
    (2_000.0, 2_250.0, 2, 3),
    (3_000.0, 3_250.0, 0, 3),
    (4_000.0, 4_250.0, 1, 3),
]


@pytest.fixture
def trace():
    return micro_trace(ROWS, 4, horizon=20_000.0)


@pytest.fixture
def cells(trace):
    cfg = SweepConfig(loads=(2, 3), replications=2, master_seed=9)
    protos = [make_protocol_config("pure"), make_protocol_config("ec")]
    return build_cells(trace, protos, cfg)


class TestBuildCells:
    def test_grid_order(self, cells):
        assert len(cells) == 8  # 2 protocols × 2 loads × 2 reps
        assert [(c.protocol.protocol_name, c.load, c.rep) for c in cells[:4]] == [
            ("pure", 2, 0),
            ("pure", 2, 1),
            ("pure", 3, 0),
            ("pure", 3, 1),
        ]

    def test_shared_trace_is_one_object(self, cells):
        assert len({id(c.trace) for c in cells}) == 1


class TestSerialExecutor:
    def test_progress_counts_every_cell(self, cells):
        seen = []
        SerialExecutor().run(cells, progress=lambda d, t, c: seen.append((d, t)))
        assert seen == [(i + 1, 8) for i in range(8)]

    def test_results_in_cell_order(self, cells):
        results = SerialExecutor().run(cells)
        assert [(r.protocol, r.load) for r in results] == [
            (c.protocol.protocol_name, c.load) for c in cells
        ]


class TestParallelExecutor:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_defaults_to_cpu_count(self):
        assert ParallelExecutor().jobs >= 1

    def test_empty_cells(self):
        assert ParallelExecutor(jobs=2).run([]) == []

    def test_single_worker_falls_back_to_serial(self, cells):
        serial = SerialExecutor().run(cells)
        assert ParallelExecutor(jobs=1).run(cells) == serial

    def test_bit_identical_to_serial(self, cells):
        """The acceptance property: jobs=2 reproduces serial exactly."""
        serial = SerialExecutor().run(cells)
        parallel = ParallelExecutor(jobs=2).run(cells)
        assert parallel == serial  # RunResult is a frozen dataclass: full ==

    def test_progress_reaches_total(self, cells):
        seen = []
        ParallelExecutor(jobs=2).run(cells, progress=lambda d, t, c: seen.append((d, t)))
        assert len(seen) == 8
        assert [d for d, _ in seen] == list(range(1, 9))
        assert all(t == 8 for _, t in seen)

    def test_normal_run_joins_its_workers(self, cells):
        """Once every cell finished, the pool is shut down and joined: no
        worker outlives the run (a worker still alive at interpreter exit
        can race the pool's teardown)."""
        before = set(multiprocessing.active_children())
        ParallelExecutor(jobs=2).run(cells)
        assert set(multiprocessing.active_children()) - before == set()


def _micro_sweep():
    trace = micro_trace(ROWS, 4, horizon=20_000.0)
    cfg = SweepConfig(loads=(2, 3), replications=2, master_seed=5)
    return trace, [make_protocol_config("pq", p=0.5, q=0.5)], cfg


def _family_sweep():
    """The paper's four baselines (P-Q, TTL, EC, immunity) on the campus
    trace at smoke scale."""
    runner = ExperimentRunner(scale="smoke", seed=7)
    spec = runner.scenario("baselines_trace")
    trace = runner.trace(SWEEP_FAMILIES["baselines_trace"][0])
    return trace, spec.build_protocols(), spec.sweep_config()


#: Sweep inputs whose serial and parallel runs must agree.
SWEEPS = {"micro": _micro_sweep, "baselines_trace": _family_sweep}


class TestRunSweepWithExecutor:
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_sweep_results_identical_across_backends(self, sweep):
        trace, protos, cfg = SWEEPS[sweep]()
        serial = run_sweep(trace, protos, cfg)
        parallel = run_sweep(trace, protos, cfg, executor=ParallelExecutor(jobs=2))
        assert serial.runs == parallel.runs

    def test_progress_has_counter_and_rep(self, trace):
        lines = []
        cfg = SweepConfig(loads=(2,), replications=3)
        run_sweep(trace, [make_protocol_config("pure")], cfg, progress=lines.append)
        assert len(lines) == 3  # per replication, not per (protocol, load)
        assert lines[0].startswith("[1/3]")
        assert "rep=0" in lines[0] and "rep=2" in lines[-1]


class TestMakeExecutor:
    def test_serial_for_none_or_one(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_above_one(self):
        ex = make_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 3
