"""The occupancy/delivery tradeoff study and its table."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.tables import render_tradeoff_table
from repro.core.executors import ParallelExecutor
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, run_sweep
from repro.experiments import get_experiment
from repro.experiments.matrix import MatrixStudy, run_matrix_study
from repro.experiments.tradeoff import TradeoffConfig, capacity_label
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


#: ``render_tradeoff_table`` of :data:`SMALL`, serial and parallel alike
TABLE_PIN = """\
Tradeoff Table — occupancy vs delivery under capacity x drop policy \
(delivery% / occupancy% / peak%, sweep means)

Protocol: Pure epidemic
capacity                  |                reject |           drop-oldest |           drop-random
-------------------------------------------------------------------------------------------------
2                         |        62.5/44.5/70.3 | 68.8/44.2/68.8 d=19.2 | 68.8/44.3/68.8 d=19.0
4                         |        75.0/34.3/56.2 | 81.2/34.3/56.2 d=15.2 | 78.1/33.9/56.2 d=13.2
per-node[2,2,2,2,6,6,6,6] |        78.1/26.8/49.2 | 84.4/27.9/50.8 d=19.2 | 84.4/28.2/50.8 d=18.5

Protocol: Epidemic with TTL=400
capacity                  |                reject |           drop-oldest |           drop-random
-------------------------------------------------------------------------------------------------
2                         |         53.1/7.5/25.0 |   62.5/9.3/26.6 d=3.5 |   62.5/9.2/26.6 d=3.5
4                         |         62.5/5.0/13.3 |         62.5/5.0/13.3 |         62.5/5.0/13.3
per-node[2,2,2,2,6,6,6,6] |         56.2/3.9/13.3 |   62.5/4.7/13.3 d=2.8 |   62.5/4.7/13.3 d=2.8"""

#: The serial run's progress lines of :data:`SMALL` (parallel lines arrive
#: in completion order): the first, the last, and sha256 of all 72 joined
#: by newlines
PROGRESS_FIRST = "[1/72] Pure epidemic: capacity=2 policy=reject load=4 rep=0 done"
PROGRESS_LAST = (
    "[72/72] Epidemic with TTL=400: capacity=per-node[2,2,2,2,6,6,6,6] "
    "policy=drop-random load=8 rep=1 done"
)
PROGRESS_DIGEST = "e8cf606e5fe2b921cbd1138734f90b74e3304906fcd10f69a471387fc4904869"


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

    def test_parallel_execution_is_identical(self, study, parallel_study):
        for key, sweep in study.grid.items():
            assert parallel_study.grid[key].runs == sweep.runs

    def test_progress_reports_every_cell(self, progress_lines):
        total = len(SMALL.capacities) * len(SMALL.policies) * 8
        assert len(progress_lines) == total
        assert "policy=" in progress_lines[0] and "capacity=" in progress_lines[0]

    def test_progress_lines_are_pinned(self, progress_lines):
        assert progress_lines[0] == PROGRESS_FIRST
        assert progress_lines[-1] == PROGRESS_LAST
        joined = "\n".join(progress_lines).encode()
        assert hashlib.sha256(joined).hexdigest() == PROGRESS_DIGEST

    def test_cell_means_expose_tradeoff_metrics(self, study):
        sweep = study.sweep(2, "drop-oldest")
        for label in sweep.protocols():
            assert {"delivery_ratio", "buffer_occupancy", "peak_occupancy", "drops"} <= set(
                sweep.protocol_means(label)
            )


class TestTable:
    def test_rows_cover_grid(self, study):
        # (capacity, policy, protocol) → that cell's sweep means, in grid order
        cells = {
            (cap, policy, label): study.sweep(cap, policy).protocol_means(label)
            for cap in study.rows
            for policy in study.columns
            for label in study.sweep(cap, policy).protocols()
        }
        assert len(cells) == len(SMALL.capacities) * len(SMALL.policies) * 2
        assert next(iter(cells))[:2] == ("2", "reject")
        het = [key for key in cells if key[0].startswith("per-node[")]
        assert het  # heterogeneous capacities are first-class rows

    def test_render_contains_all_axes(self, study):
        text = render_tradeoff_table(study)
        for policy in SMALL.policies:
            assert policy in text
        assert "per-node[2,2,2,2,6,6,6,6]" in text
        assert "Pure epidemic" in text
        assert "Epidemic with TTL=400" in text

    def test_serial_table_is_pinned(self, study):
        assert render_tradeoff_table(study) == TABLE_PIN

    def test_parallel_table_is_pinned(self, parallel_study):
        assert render_tradeoff_table(parallel_study) == TABLE_PIN


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

    @pytest.mark.parametrize(
        "axis",
        [
            {"capacities": (2, 5, 2)},
            {"capacities": ((1, 2), [1, 2])},
            {"policies": ("reject", "drop-oldest", "reject")},
        ],
    )
    def test_repeated_axis_label_refused(self, axis):
        # one label keys one setting: a repeat ran its cells twice, kept
        # one sweep and printed its table row twice
        (name,) = axis
        with pytest.raises(ValueError, match=f"{name} repeats"):
            TradeoffConfig(**axis)
