"""The surrogate cross-validation gate: pooling, noise floor, refusal."""

import dataclasses
import hashlib
import json
import math
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.analytic import surrogate
from repro.analytic.calibration import (
    CrossValidationReport,
    IncompleteReferenceGridError,
    PooledResidual,
    SurrogateAccuracyError,
    compare_sweeps,
    cross_validate_scenario,
    pool_sweeps,
)
from repro.core.results import RunResult, SweepResult
from repro.scenarios import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec


def run(protocol="pure", load=5, *, delay, dup=0.2, ratio=1.0, seed=0):
    return RunResult(
        protocol=protocol,
        protocol_label=protocol,
        trace_name="t",
        load=load,
        seed=seed,
        source=0,
        destination=1,
        delivered=load if delay is not None else 0,
        delivery_ratio=ratio,
        delay=delay,
        success=delay is not None,
        buffer_occupancy=0.1,
        duplication_rate=dup,
        signaling={},
        transmissions=load,
        wasted_slots=0,
        removals={},
        end_time=delay if delay is not None else 1_000.0,
    )


def sweep(*runs):
    return SweepResult(runs=list(runs))


def pooled_by(pooled, protocol, metric):
    return next(r for r in pooled if r.protocol == protocol and r.metric == metric)


class TestPoolSweeps:
    def test_pools_whole_grid_means_with_noise_floor(self):
        des = sweep(
            run(delay=100.0, seed=1), run(delay=120.0, seed=2),
            run(load=10, delay=110.0, seed=3), run(load=10, delay=130.0, seed=4),
        )
        ode = sweep(run(delay=112.0), run(load=10, delay=118.0))
        row = pooled_by(pool_sweeps(des, ode), "pure", "delay")
        assert row.des == pytest.approx(115.0)
        assert row.surrogate == pytest.approx(115.0)
        assert row.rel_error == pytest.approx(0.0, abs=1e-12)
        # 2·SEM of {100,120,110,130}: var = 166.67, sem = 6.455
        assert row.noise_floor == pytest.approx(2 * 6.4550 / 115.0, rel=1e-3)

    def test_failed_runs_excluded_from_delay_pool(self):
        des = sweep(run(delay=100.0, seed=1), run(delay=None, seed=2))
        ode = sweep(run(delay=100.0))
        row = pooled_by(pool_sweeps(des, ode), "pure", "delay")
        assert row.des == pytest.approx(100.0)
        assert row.noise_floor is None  # one surviving value -> no SEM

    def test_one_sided_absence_is_infinite_error(self):
        des = sweep(run(delay=None))
        ode = sweep(run(delay=50.0))
        row = pooled_by(pool_sweeps(des, ode), "pure", "delay")
        assert row.rel_error == math.inf


class TestEnsure:
    def report(self, *pooled):
        return CrossValidationReport(
            residuals=[],
            pooled=list(pooled),
            loads=(5, 10),
            replications=12,
            reference={"kind": "poisson"},
        )

    def pooled_row(self, rel_error, noise_floor, metric="delay"):
        return PooledResidual(
            protocol="pure",
            metric=metric,
            des=100.0,
            surrogate=100.0 * (1 + rel_error),
            rel_error=rel_error,
            noise_floor=noise_floor,
        )

    def test_within_tolerance_passes(self):
        self.report(self.pooled_row(0.05, 0.01)).ensure(0.10)

    def test_resolved_disagreement_refused(self):
        with pytest.raises(SurrogateAccuracyError, match="pure/delay: 30.0%"):
            self.report(self.pooled_row(0.30, 0.05)).ensure(0.10)

    def test_unresolvable_disagreement_tolerated(self):
        """Error above tolerance but below the DES noise floor: reported,
        not fatal — the grid cannot statistically distinguish the two."""
        self.report(self.pooled_row(0.30, 0.40)).ensure(0.10)

    def test_missing_floor_counts_as_zero(self):
        with pytest.raises(SurrogateAccuracyError):
            self.report(self.pooled_row(0.30, None)).ensure(0.10)

    def test_summary_and_dict_carry_both_numbers(self):
        report = self.report(self.pooled_row(0.30, 0.40))
        text = report.summary()
        assert "30.00%" in text and "40.00%" in text
        data = report.to_dict()
        assert data["pooled"][0]["rel_error"] == pytest.approx(0.30)
        assert data["pooled"][0]["noise_floor"] == pytest.approx(0.40)
        assert data["metrics"]["delay"]["max"] == pytest.approx(0.30)


class TestCompareSweeps:
    def test_per_cell_residuals_keep_load_structure(self):
        des = sweep(run(delay=100.0), run(load=10, delay=200.0))
        ode = sweep(run(delay=110.0), run(load=10, delay=180.0))
        cells = compare_sweeps(des, ode, metrics=("delay",))
        by_load = {c.load: c for c in cells}
        assert by_load[5].rel_error == pytest.approx(0.10)
        assert by_load[10].rel_error == pytest.approx(0.10)


def gate_spec(**overrides):
    """A small poisson-mobility ODE scenario the gate can cross-validate."""
    kwargs = dict(
        name="gate",
        seed=11,
        mobility=MobilitySpec(
            "poisson",
            {
                "num_nodes": 12,
                "beta": 5e-4,
                "horizon": 20_000.0,
                "duration": 40.0,
            },
        ),
        protocols=(ProtocolSpec("pure"),),
        workload=WorkloadSpec(loads=(2, 4, 8), replications=2),
        engine="ode",
        bundle_tx_time=1.0,
        buffer_capacity=64,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestCrossValidateScenario:
    def test_reference_grid_runs_both_engines(self):
        report = cross_validate_scenario(gate_spec(), loads=(2, 4), replications=2)
        assert report.loads == (2, 4)
        assert report.replications == 2
        assert report.reference["kind"] == "poisson"
        assert pooled_by(report.pooled, "Pure epidemic", "delivery_ratio").des == 1.0
        # 2 loads × 3 metrics per protocol
        assert len(report.residuals) == 6

    def test_analytic_mobility_requires_reference(self):
        spec = gate_spec(
            mobility=MobilitySpec(
                "analytic", {"num_nodes": 1000, "beta": 1e-7, "horizon": 1e6}
            )
        )
        with pytest.raises(ValueError, match="surrogate_reference"):
            cross_validate_scenario(spec, replications=2)

    def test_spec_run_attaches_report(self):
        result = gate_spec(workload=WorkloadSpec(loads=(2, 4), replications=2)).run()
        assert result.surrogate_report is not None
        assert result.surrogate_report["loads"] == [2, 4]
        assert result.surrogate_report["replications"] >= 2

    def test_spec_run_honours_no_check(self):
        spec = gate_spec(
            workload=WorkloadSpec(loads=(2,), replications=1), surrogate_check=False
        )
        assert spec.run().surrogate_report is None

    def test_resolved_disagreement_refuses_the_run(self, monkeypatch):
        """spec.run() must refuse when the gate reports a resolved miss."""
        import repro.analytic.calibration as calibration

        bad_report = CrossValidationReport(
            residuals=[],
            pooled=[
                PooledResidual(
                    protocol="Pure epidemic",
                    metric="delay",
                    des=100.0,
                    surrogate=150.0,
                    rel_error=0.5,
                    noise_floor=0.02,
                )
            ],
            loads=(2, 4),
            replications=12,
            reference={"kind": "poisson"},
        )
        monkeypatch.setattr(
            calibration, "cross_validate_scenario", lambda spec, progress=None: bad_report
        )
        with pytest.raises(SurrogateAccuracyError, match="refusing to extrapolate"):
            gate_spec().run()


class TestGateTraces:
    @pytest.mark.parametrize("shared,builds", [(False, 3), (True, 1)])
    def test_each_reference_trace_is_built_once(self, monkeypatch, shared, builds):
        """The emptiness probe and both engines' passes share one trace
        per replication index."""
        calls = []
        real = ScenarioSpec.build_trace

        def counting(self, rep=0):
            calls.append(rep)
            return real(self, rep)

        monkeypatch.setattr(ScenarioSpec, "build_trace", counting)
        cross_validate_scenario(
            gate_spec(shared_trace=shared), loads=(2, 4), replications=3
        )
        assert len(calls) == builds
        assert sorted(calls) == list(range(builds))


class TestGateSolves:
    @pytest.fixture
    def solves(self, monkeypatch):
        """A fresh memo, and the batch size of every integrator call."""
        monkeypatch.setattr(surrogate, "_SOLVED", OrderedDict())
        calls = []
        real = surrogate._holder_curves_exact

        def counting(n, betas, p, q, horizon):
            calls.append(len(betas))
            return real(n, betas, p, q, horizon)

        monkeypatch.setattr(surrogate, "_holder_curves_exact", counting)
        return calls

    def test_reference_chains_are_solved_in_one_batch(self, solves):
        """Pure and P-Q(1, 1) read the same chain of each reference trace:
        three chains, integrated together before the surrogate pass."""
        spec = gate_spec(
            protocols=(ProtocolSpec("pure"), ProtocolSpec("pq", {"p": 1.0, "q": 1.0})),
            shared_trace=False,
        )
        cross_validate_scenario(spec, loads=(2, 4), replications=3)
        assert solves == [3]

    def test_an_ungated_sweep_solves_its_chains_in_one_batch(self, solves):
        """Without a gate, run_sweep solves the exact-regime chains of an
        ODE sweep before its cells: one integration for the 36-node chains
        of three fresh traces, and the cells the chains of a per-cell solve
        would give."""
        spec = gate_spec(
            mobility=MobilitySpec(
                "poisson",
                {"num_nodes": 36, "beta": 1.0 / 6000.0, "horizon": 50_000.0, "duration": 40.0},
            ),
            workload=WorkloadSpec(loads=(5, 10), replications=3),
            shared_trace=False,
            surrogate_check=False,
        )
        runs = [repr(r) for r in spec.run().runs]
        assert solves == [3]
        # each chain alone, as a cell solves it when nothing solved it first
        surrogate._SOLVED.clear()
        for rep in range(3):
            trace = spec.build_trace(rep)
            surrogate._solve_exact(
                36,
                surrogate.resolve_meeting_rate(trace, spec.sweep_config().sim),
                1.0,
                1.0,
                50_000.0,
            )
        assert solves == [3, 1, 1, 1]
        assert [repr(r) for r in spec.run().runs] == runs

    def test_chains_beyond_the_memo_are_solved_by_their_cells(self, solves, monkeypatch):
        spec = gate_spec(shared_trace=False)
        want = cross_validate_scenario(spec, loads=(2, 4), replications=3)
        surrogate._SOLVED.clear()
        solves.clear()
        monkeypatch.setattr(surrogate, "_SOLVE_CACHE_SIZE", 2)
        got = cross_validate_scenario(spec, loads=(2, 4), replications=3)
        assert got.to_dict() == want.to_dict()
        # the batch fills the memo; the cells then take turns evicting
        assert solves[0] == 2 and set(solves[1:]) == {1}

    @pytest.mark.parametrize("on_error", ["abort", "keep-going"])
    def test_unsupported_protocol_names_its_cell(self, on_error, monkeypatch):
        """The scenario refuses the protocol when it loads, naming it,
        before any reference cell of either engine runs."""
        import repro.core.sweep as sweep_module

        ran = []
        monkeypatch.setattr(sweep_module, "run_single", lambda *cell: ran.append(cell))
        protocols = (ProtocolSpec("pure"), ProtocolSpec("ttl", {"ttl": 300.0}))
        with pytest.raises(
            surrogate.UnsupportedProtocolError, match="no mean-field model for protocol 'ttl'"
        ):
            gate_spec(protocols=protocols, on_error=on_error)
        # a DES scenario loads, but the gate refuses it before its DES pass
        spec = gate_spec(protocols=protocols, on_error=on_error, engine="des")
        with pytest.raises(surrogate.UnsupportedProtocolError, match="protocol 'ttl'"):
            cross_validate_scenario(spec, loads=(2,), replications=2)
        assert ran == []


class TestIncompleteReferenceGrid:
    @pytest.mark.parametrize("engine", ["des", "ode"])
    def test_failed_reference_cell_is_named(self, monkeypatch, engine):
        """Under keep-going a failed reference cell must stop the gate, not
        silently shrink the grid it pools."""
        import repro.core.sweep as sweep_module

        real = sweep_module.run_single

        def flaky(trace, protocol, load, rep, sweep):
            if sweep.sim.engine == engine and load == 4 and rep == 1:
                raise RuntimeError("injected reference failure")
            return real(trace, protocol, load, rep, sweep)

        monkeypatch.setattr(sweep_module, "run_single", flaky)
        spec = gate_spec(on_error="keep-going")
        with pytest.raises(IncompleteReferenceGridError) as info:
            cross_validate_scenario(spec, loads=(2, 4), replications=2)
        err = info.value
        assert err.engine == engine
        assert [(f.protocol, f.load, f.rep) for f in err.failures] == [("pure", 4, 1)]
        assert "(protocol='pure', load=4, rep=1)" in str(err)
        assert "injected reference failure" in str(err)

    def test_spec_run_refuses_too(self, monkeypatch):
        import repro.core.sweep as sweep_module

        real = sweep_module.run_single

        def flaky(trace, protocol, load, rep, sweep):
            if load == 2 and rep == 0:
                raise RuntimeError("injected")
            return real(trace, protocol, load, rep, sweep)

        monkeypatch.setattr(sweep_module, "run_single", flaky)
        spec = gate_spec(
            workload=WorkloadSpec(loads=(2, 4), replications=2), on_error="keep-going"
        )
        with pytest.raises(IncompleteReferenceGridError, match="load=2, rep=0"):
            spec.run()


#: sha256 of the gate report of ``examples/scenarios/surrogate_smoke.json``
#: plus the ``repr`` of every reference-grid ODE RunResult, as computed
#: before the exact integrator was rewritten and memoized.
SURROGATE_SMOKE_GATE_DIGEST = (
    "fdb9ac4cb687f9992c22cdf1aed031c2b63e437d1503e0f32551865da305fabf"
)


class TestGatePin:
    def test_surrogate_smoke_gate_is_byte_identical(self):
        spec = ScenarioSpec.load(
            Path(__file__).resolve().parents[2]
            / "examples"
            / "scenarios"
            / "surrogate_smoke.json"
        )
        report = cross_validate_scenario(spec)
        reference_grid = dataclasses.replace(
            spec,
            workload=WorkloadSpec(loads=report.loads, replications=report.replications),
            surrogate_check=False,
        )
        runs = reference_grid.run().runs
        text = json.dumps(report.to_dict(), sort_keys=True)
        text += "\n" + "\n".join(repr(r) for r in runs)
        assert hashlib.sha256(text.encode()).hexdigest() == SURROGATE_SMOKE_GATE_DIGEST
