"""The occupancy/delivery tradeoff study and its table."""

from __future__ import annotations

import pytest

from repro.analysis.tables import build_tradeoff_table, render_tradeoff_table
from repro.core.executors import ParallelExecutor
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, run_sweep
from repro.experiments import get_experiment
from repro.experiments.tradeoff import (
    TradeoffConfig,
    TradeoffStudy,
    capacity_label,
    run_tradeoff_study,
)
from repro.scenarios import MobilitySpec, ProtocolSpec

SMALL = TradeoffConfig(
    capacities=(2, 4, (2, 2, 2, 2, 6, 6, 6, 6)),
    policies=("reject", "drop-oldest", "drop-random"),
    protocols=(ProtocolSpec("pure"), ProtocolSpec("ttl", {"ttl": 400.0})),
    mobility=MobilitySpec(
        "interval", {"num_nodes": 8, "max_encounters_per_node": 12, "max_interval": 400.0}
    ),
    loads=(4, 8),
    replications=2,
    seed=5,
)


@pytest.fixture(scope="module")
def study() -> TradeoffStudy:
    return run_tradeoff_study(SMALL)


class TestStudy:
    def test_grid_is_complete(self, study):
        assert set(study.grid) == {
            (capacity_label(c), p) for c in SMALL.capacities for p in SMALL.policies
        }
        for sweep in study.grid.values():
            assert len(sweep) == 8  # 2 protocols × 2 loads × 2 reps

    def test_reject_column_reproduces_seed_scenario_exactly(self, study):
        """Acceptance: 'reject' is behaviourally identical to the historical
        refuse-when-full configuration — run-for-run equality."""
        for capacity in SMALL.capacities:
            baseline = run_sweep(
                SMALL.mobility.build(seed=SMALL.seed),
                [p.build() for p in SMALL.protocols],
                SweepConfig(
                    loads=SMALL.loads,
                    replications=SMALL.replications,
                    master_seed=SMALL.seed,
                    sim=SimulationConfig(buffer_capacity=capacity),
                ),
            )
            assert study.sweep(capacity, "reject").runs == baseline.runs

    def test_common_random_numbers_across_grid(self, study):
        """Every (capacity, policy) cell sees the same workload draw."""
        endpoints = {
            key: [(r.source, r.destination) for r in sweep.runs]
            for key, sweep in study.grid.items()
        }
        baseline = next(iter(endpoints.values()))
        assert all(e == baseline for e in endpoints.values())

    def test_eviction_policies_drop_under_contention(self, study):
        drops = sum(
            sum(r.drops.values())
            for (cap, pol), sweep in study.grid.items()
            if pol == "drop-oldest"
            for r in sweep.runs
        )
        assert drops > 0

    def test_parallel_execution_is_identical(self, study):
        parallel = run_tradeoff_study(SMALL, executor=ParallelExecutor(jobs=2))
        for key, sweep in study.grid.items():
            assert parallel.grid[key].runs == sweep.runs

    def test_progress_reports_every_cell(self):
        lines = []
        run_tradeoff_study(SMALL, progress=lines.append)
        total = len(SMALL.capacities) * len(SMALL.policies) * 8
        assert len(lines) == total
        assert "policy=" in lines[0] and "capacity=" in lines[0]

    def test_cell_means_expose_tradeoff_metrics(self, study):
        means = study.cell_means(2, "drop-oldest")
        for metrics in means.values():
            assert {"delivery_ratio", "buffer_occupancy", "peak_occupancy", "drops"} <= set(
                metrics
            )


class TestTable:
    def test_rows_cover_grid(self, study):
        rows = build_tradeoff_table(study)
        assert len(rows) == len(SMALL.capacities) * len(SMALL.policies) * 2
        assert rows[0].capacity == "2" and rows[0].policy == "reject"
        het = [r for r in rows if r.capacity.startswith("per-node[")]
        assert het  # heterogeneous capacities are first-class rows

    def test_render_contains_all_axes(self, study):
        text = render_tradeoff_table(study)
        for policy in SMALL.policies:
            assert policy in text
        assert "per-node[2,2,2,2,6,6,6,6]" in text
        assert "Pure epidemic" in text
        assert "Epidemic with TTL=400" in text


class TestRegistry:
    def test_experiment_registered(self):
        exp = get_experiment("tradeoff")
        assert exp.kind == "table"
        assert "drop policy" in exp.description

    def test_config_validation(self):
        with pytest.raises(ValueError, match="capacities"):
            TradeoffConfig(capacities=())
        with pytest.raises(ValueError, match="unknown drop policy"):
            TradeoffConfig(policies=("fifo",))
        with pytest.raises(ValueError):
            TradeoffConfig(capacities=(0,))
        # a fraction or a bool is refused, not truncated into another run
        for capacity in (2.5, True):
            with pytest.raises(ValueError, match="buffer_capacity"):
                TradeoffConfig(capacities=(capacity,))
