"""Sweep runner: grid shape, common random numbers, trace factories."""

import pytest

from repro.core.protocols import make_protocol_config
from repro.core.sweep import SweepConfig, constant_trace, run_single, run_sweep
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


class TestSweepConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"loads": ()}, {"loads": (0,)}, {"replications": 0}],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


class TestRunSweep:
    def test_grid_size(self, trace):
        cfg = SweepConfig(loads=(2, 4), replications=3, master_seed=1)
        result = run_sweep(trace, [make_protocol_config("pure")], cfg)
        assert len(result) == 6
        assert result.loads() == [2, 4]

    def test_requires_protocols(self, trace):
        with pytest.raises(ValueError):
            run_sweep(trace, [], SweepConfig(loads=(2,), replications=1))

    def test_common_random_numbers_across_protocols(self, trace):
        """Every protocol sees the same (source, destination) per cell."""
        cfg = SweepConfig(loads=(2, 3), replications=4, master_seed=9)
        result = run_sweep(
            trace,
            [make_protocol_config("pure"), make_protocol_config("ec")],
            cfg,
        )
        by_cell_pure = {}
        by_cell_ec = {}
        for r in result.runs:
            (by_cell_pure if r.protocol == "pure" else by_cell_ec).setdefault(
                r.load, []
            ).append((r.source, r.destination))
        for load in (2, 3):
            assert sorted(by_cell_pure[load]) == sorted(by_cell_ec[load])

    def test_endpoints_vary_across_replications(self, trace):
        cfg = SweepConfig(loads=(2,), replications=8, master_seed=5)
        result = run_sweep(trace, [make_protocol_config("pure")], cfg)
        endpoints = {(r.source, r.destination) for r in result.runs}
        assert len(endpoints) > 1

    def test_progress_callback(self, trace):
        lines = []
        cfg = SweepConfig(loads=(2, 3), replications=1)
        run_sweep(trace, [make_protocol_config("pure")], cfg, progress=lines.append)
        assert len(lines) == 2
        assert "load=2" in lines[0]

    def test_trace_factory_shared(self, trace):
        calls = []

        def factory(rep):
            calls.append(rep)
            return trace

        cfg = SweepConfig(loads=(2,), replications=3, shared_trace=True)
        run_sweep(factory, [make_protocol_config("pure")], cfg)
        assert calls == [0]  # one build, reused

    def test_trace_factory_per_replication(self, trace):
        calls = []

        def factory(rep):
            calls.append(rep)
            return trace

        cfg = SweepConfig(loads=(2,), replications=3, shared_trace=False)
        run_sweep(factory, [make_protocol_config("pure")], cfg)
        assert calls == [0, 1, 2]

    def test_reproducible(self, trace):
        cfg = SweepConfig(loads=(2,), replications=2, master_seed=3)
        protos = [make_protocol_config("pq", p=0.5, q=0.5)]
        a = run_sweep(trace, protos, cfg)
        b = run_sweep(trace, protos, cfg)
        assert [r.delivery_ratio for r in a.runs] == [r.delivery_ratio for r in b.runs]
        assert [r.delay for r in a.runs] == [r.delay for r in b.runs]


class TestRunSingle:
    def test_builds_one_cell(self, trace):
        cfg = SweepConfig(loads=(3,), replications=1, master_seed=2)
        result = run_single(trace, make_protocol_config("pure"), 3, 0, cfg)
        assert result.load == 3

    def test_constant_trace_helper(self, trace):
        factory = constant_trace(trace)
        assert factory(0) is trace
        assert factory(99) is trace


_DES_CAMPAIGN = """
import sys

from repro.scenarios.spec import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec

spec = ScenarioSpec(
    mobility=MobilitySpec("interval", {"num_nodes": 6, "max_encounters_per_node": 6}),
    protocols=(ProtocolSpec("pure"), ProtocolSpec("immunity")),
    workload=WorkloadSpec(loads=(2,), replications=2),
)
spec.run(checkpoint=sys.argv[1])
spec.run(checkpoint=sys.argv[1], resume=True)
print(sorted(name for name in sys.modules if name.startswith("repro.analytic")))
"""


def test_des_campaigns_never_import_the_analytic_tier(tmp_path):
    """A DES sweep and its resume (cells, trace fingerprints, journal),
    and ``repro run-scenario`` on a DES scenario, never load
    ``repro.analytic``: its import costs a fresh process about 20 ms, and
    only ODE cells need it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _DES_CAMPAIGN, str(tmp_path / "campaign")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
    # and neither does the CLI's run-scenario on a DES scenario
    scenario = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
    cli = subprocess.run(
        [
            sys.executable, "-X", "importtime", "-m", "repro", "run-scenario",
            str(scenario / "churn_resilience.json"), "--out", str(tmp_path / "out"),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    imported = [line for line in cli.stderr.splitlines() if line.startswith("import time:")]
    assert imported
    assert not [line for line in imported if "repro.analytic" in line]
