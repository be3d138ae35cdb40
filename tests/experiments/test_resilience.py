"""The churn-resilience study and its table."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.tables import render_resilience_table
from repro.core.executors import ParallelExecutor
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, run_sweep
from repro.experiments import get_experiment
from repro.experiments.matrix import MatrixStudy, run_matrix_study
from repro.experiments.resilience import ResilienceConfig, churn_rate_label
from repro.scenarios import MobilitySpec, ProtocolSpec

SMALL = ResilienceConfig(
    churn_rates=(0.0, 2e-4),
    state_loss_modes=("none", "all"),
    mean_downtime=1500.0,
    protocols=(
        ProtocolSpec("pure"),
        ProtocolSpec("pq", {"p": 1.0, "q": 1.0, "anti_packets": True}),
        ProtocolSpec("immunity"),
    ),
    mobility=MobilitySpec(
        "interval", {"num_nodes": 12, "max_encounters_per_node": 20, "max_interval": 400.0}
    ),
    loads=(4, 8),
    replications=2,
    seed=5,
)


#: ``render_resilience_table`` of :data:`SMALL`, serial and parallel alike
TABLE_PIN = """\
Resilience Table — delivery under churn rate x state-loss mode \
(delivery%, sweep means; r= mean re-infections after wipe)

Protocol: Pure epidemic
churn rate |       none |        all
------------------------------------
0          |      100.0 |      100.0
0.0002     |       90.6 |       62.5

Protocol: P-Q epidemic (P=1, Q=1, anti-packets)
churn rate |       none |        all
------------------------------------
0          |      100.0 |      100.0
0.0002     |       90.6 | 65.6 r=1.0

Protocol: Epidemic with immunity
churn rate |       none |        all
------------------------------------
0          |      100.0 |      100.0
0.0002     |       90.6 | 65.6 r=1.0"""

#: The serial run's progress lines of :data:`SMALL` (parallel lines arrive
#: in completion order): the first, the last, and sha256 of all 48 joined
#: by newlines
PROGRESS_FIRST = "[1/48] Pure epidemic: churn=0 state_loss=none load=4 rep=0 done"
PROGRESS_LAST = "[48/48] Epidemic with immunity: churn=0.0002 state_loss=all load=8 rep=1 done"
PROGRESS_DIGEST = "324139528c961c1cd1b05343350c4d77d6d343e2ed19703bfff7b17e1cc51a65"


@pytest.fixture(scope="module")
def study() -> MatrixStudy:
    return run_matrix_study(SMALL)


@pytest.fixture(scope="module")
def parallel_study() -> MatrixStudy:
    return run_matrix_study(SMALL, executor=ParallelExecutor(jobs=2))


@pytest.fixture(scope="module")
def progress_lines() -> list[str]:
    lines: list[str] = []
    run_matrix_study(SMALL, progress=lines.append)
    return lines


class TestStudy:
    def test_grid_is_complete(self, study):
        assert set(study.grid) == {
            (churn_rate_label(r), m)
            for r in SMALL.churn_rates
            for m in SMALL.state_loss_modes
        }
        for sweep in study.grid.values():
            assert len(sweep) == 12  # 3 protocols × 2 loads × 2 reps

    def test_zero_churn_row_reproduces_unfaulted_sweep_exactly(self, study):
        """Acceptance: the baseline row is the exact fault-free
        configuration — run-for-run equality with a plain sweep."""
        baseline = run_sweep(
            SMALL.mobility.build(seed=SMALL.seed),
            [p.build() for p in SMALL.protocols],
            SweepConfig(
                loads=SMALL.loads,
                replications=SMALL.replications,
                master_seed=SMALL.seed,
                sim=SimulationConfig(),
            ),
        )
        for mode in SMALL.state_loss_modes:
            assert study.sweep(0.0, mode).runs == baseline.runs

    def test_state_loss_measurably_degrades_delivery(self, study):
        """Acceptance: state-preserving and state-losing reboots separate
        for every protocol family at the faulted churn rate."""
        for label in study.sweep(0.0, "none").protocols():
            keep = study.sweep(2e-4, "none").protocol_means(label)
            lose = study.sweep(2e-4, "all").protocol_means(label)
            assert lose["delivery_ratio"] < keep["delivery_ratio"]

    def test_churn_counters_populated_only_when_faulted(self, study):
        """Faulted cells report churn accounting; the zero-churn row keeps
        the fault-free result shape (no churn block at all)."""
        for mode in SMALL.state_loss_modes:
            assert all(r.churn == {} for r in study.sweep(0.0, mode).runs)
            faulted = study.sweep(2e-4, mode).runs
            assert all(r.churn for r in faulted)
            assert any(r.churn["crashes"] > 0 for r in faulted)

    def test_parallel_execution_is_identical(self, study, parallel_study):
        for key, sweep in study.grid.items():
            assert parallel_study.grid[key].runs == sweep.runs

    def test_progress_reports_every_cell(self, progress_lines):
        total = len(SMALL.churn_rates) * len(SMALL.state_loss_modes) * 12
        assert len(progress_lines) == total
        assert "churn=" in progress_lines[0] and "state_loss=" in progress_lines[0]

    def test_progress_lines_are_pinned(self, progress_lines):
        assert progress_lines[0] == PROGRESS_FIRST
        assert progress_lines[-1] == PROGRESS_LAST
        joined = "\n".join(progress_lines).encode()
        assert hashlib.sha256(joined).hexdigest() == PROGRESS_DIGEST


class TestTable:
    def test_rows_cover_grid(self, study):
        # (rate, mode, protocol) → that cell's sweep means, in grid order
        cells = {
            (rate, mode, label): study.sweep(rate, mode).protocol_means(label)
            for rate in study.rows
            for mode in study.columns
            for label in study.sweep(rate, mode).protocols()
        }
        assert len(cells) == len(SMALL.churn_rates) * len(SMALL.state_loss_modes) * 3
        assert next(iter(cells))[:2] == ("0", "none")

    def test_render_contains_all_axes(self, study):
        text = render_resilience_table(study)
        for mode in SMALL.state_loss_modes:
            assert mode in text
        assert "0.0002" in text
        assert "Pure epidemic" in text
        assert "Epidemic with immunity" in text

    def test_serial_table_is_pinned(self, study):
        assert render_resilience_table(study) == TABLE_PIN

    def test_parallel_table_is_pinned(self, parallel_study):
        assert render_resilience_table(parallel_study) == TABLE_PIN


class TestRegistry:
    def test_experiment_registered(self):
        exp = get_experiment("resilience")
        assert exp.kind == "table"
        assert "state-loss" in exp.description

    def test_config_validation(self):
        with pytest.raises(ValueError, match="churn_rates"):
            ResilienceConfig(churn_rates=())
        with pytest.raises(ValueError, match="state-loss"):
            ResilienceConfig(state_loss_modes=("vaporise",))
        with pytest.raises(ValueError, match="mean_downtime"):
            ResilienceConfig(mean_downtime=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(churn_rates=(-1e-4,))

    @pytest.mark.parametrize(
        "axis",
        [
            {"churn_rates": (0.0, 1e-4, 0.0)},
            # distinct values, one label: the grid would key both as "0.0001"
            {"churn_rates": (1e-4, 1.00000001e-4)},
            {"state_loss_modes": ("none", "buffer", "none")},
        ],
    )
    def test_repeated_axis_label_refused(self, axis):
        (name,) = axis
        with pytest.raises(ValueError, match=f"{name} repeats"):
            ResilienceConfig(**axis)
