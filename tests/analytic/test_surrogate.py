"""The mean-field surrogate engine: model math, run mapping, dispatch."""

import dataclasses
import math

import numpy as np
import pytest

from repro import SimulationConfig, SweepConfig, make_protocol_config, run_sweep
from repro.analytic.surrogate import (
    AnalyticContactModel,
    UnsupportedProtocolError,
    _birth_rates,
    _holder_curves_fluid,
    _rank_time_averages,
    holder_curves,
    make_analytic_model,
    resolve_meeting_rate,
    surrogate_run,
    transmission_coins,
)
from repro.core.results import RunResult
from repro.core.workload import Flow
from repro.mobility.poisson import PoissonContactConfig, generate_poisson_trace

N, BETA = 36, 1.0 / 6000.0


def paper_model(horizon: float = 200_000.0) -> AnalyticContactModel:
    return make_analytic_model(num_nodes=N, beta=BETA, horizon=horizon)


class TestTransmissionCoins:
    def test_pure_is_certain_coins(self):
        assert transmission_coins(make_protocol_config("pure")) == (1.0, 1.0)

    def test_pq_coins_pass_through(self):
        cfg = make_protocol_config("pq", p=0.5, q=0.25)
        assert transmission_coins(cfg) == (0.5, 0.25)

    def test_anti_packet_pq_unsupported(self):
        cfg = make_protocol_config("pq", p=1.0, q=1.0, anti_packets=True)
        with pytest.raises(UnsupportedProtocolError, match="anti-packet"):
            transmission_coins(cfg)

    @pytest.mark.parametrize("name", ["ttl", "ec", "immunity"])
    def test_removal_side_protocols_unsupported(self, name):
        kwargs = {"ttl": 300.0} if name == "ttl" else {}
        with pytest.raises(UnsupportedProtocolError, match="supported"):
            transmission_coins(make_protocol_config(name, **kwargs))


class TestAnalyticContactModel:
    def test_carries_rate_and_horizon(self):
        model = paper_model()
        assert model.beta == BETA
        assert model.num_nodes == N
        assert len(model) == 0
        assert resolve_meeting_rate(model, SimulationConfig()) == BETA

    def test_rejects_explicit_contacts(self):
        from repro.mobility.contact import Contact

        with pytest.raises(ValueError, match="no explicit contacts"):
            AnalyticContactModel(
                [Contact(1.0, 2.0, 0, 1)], 4, horizon=10.0, beta=1e-4
            )

    @pytest.mark.parametrize("kwargs", [{"beta": 0.0}, {"horizon": 0.0}])
    def test_rejects_degenerate_parameters(self, kwargs):
        params = {"num_nodes": 8, "beta": 1e-4, "horizon": 100.0}
        params.update(kwargs)
        with pytest.raises(ValueError):
            make_analytic_model(**params)

    def test_des_engine_rejects_it(self):
        # the executor wraps the in-cell ValueError, naming the cell and
        # chaining the original misconfiguration message
        from repro.core.executors import CellExecutionError

        with pytest.raises(CellExecutionError, match="analytic") as err:
            run_sweep(
                paper_model(),
                [make_protocol_config("pure")],
                SweepConfig(loads=(5,), replications=1, master_seed=1),
            )
        assert isinstance(err.value.__cause__, ValueError)


class TestHolderCurves:
    def test_validation(self):
        for bad in (
            dict(n=1, beta=BETA, p=1, q=1, horizon=10.0),
            dict(n=8, beta=0.0, p=1, q=1, horizon=10.0),
            dict(n=8, beta=BETA, p=1, q=1, horizon=0.0),
            dict(n=8, beta=BETA, p=1.5, q=1, horizon=10.0),
            dict(n=8, beta=BETA, p=1, q=-0.1, horizon=10.0),
        ):
            with pytest.raises(ValueError):
                holder_curves(**bad)

    def test_exact_regime_spans_one_to_n(self):
        ts, mean, cond = holder_curves(N, BETA, 1.0, 1.0, 200_000.0)
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(200_000.0)
        assert mean[0] == pytest.approx(1.0)
        assert mean[-1] == pytest.approx(N, rel=1e-3)
        assert np.all(np.diff(mean) >= -1e-9)
        # destination-susceptible conditioning lags the unconditional mean
        assert np.all(cond <= mean + 1e-9)

    def test_p_zero_never_spreads(self):
        ts, mean, cond = holder_curves(12, BETA, 0.0, 1.0, 10_000.0)
        assert np.all(mean == 1.0) and np.all(cond == 1.0)

    def test_fluid_tracks_exact_at_crossover(self):
        """Forcing the fluid path at an exactly-integrable N stays close.

        The fluid curve has no early-phase randomness, so at fixed t it
        leads the exact mean; the honest comparison is the *time* each
        regime needs to reach a holder level, which agrees to ~10% at
        N = 400 (the stochastic delay shrinks as ln N / N).
        """
        n, beta, horizon = 400, 2e-5, 3_000_000.0
        ts_e, mean_e, _ = holder_curves(n, beta, 1.0, 1.0, horizon)
        ts_f, mean_f, _ = _holder_curves_fluid(n, beta, 1.0, 1.0, horizon)
        for frac in (0.5, 0.75, 0.95):
            level = 1 + frac * (n - 1)
            t_exact = ts_e[int(np.searchsorted(mean_e, level))]
            t_fluid = ts_f[int(np.searchsorted(mean_f, level))]
            assert t_fluid == pytest.approx(t_exact, rel=0.15)
        assert float(mean_f[-1]) == pytest.approx(float(mean_e[-1]), rel=1e-3)


class TestRankTimeAverages:
    def test_two_node_ratio_is_exactly_one(self):
        """N=2: the only rank has I ≡ 1 before delivery, so (1/T)∫I dt = 1."""
        rates = _birth_rates(2, BETA, 1.0, 1.0)[:-1]
        holders, relays = _rank_time_averages(rates, 1)
        assert holders == pytest.approx(1.0, rel=1e-3)
        assert relays == pytest.approx(0.0, abs=1e-4)

    def test_three_node_closed_form(self):
        """N=3 pure epidemic has λ1 = λ2, so E2/(E1+E2) ~ Uniform(0,1):

        rank 1: (1/T)∫I dt = 1; rank 2: 1 + E[E2/(E1+E2)] = 1.5.
        Averaged over the uniform rank: holders 1.25, relays 0.25.
        """
        rates = _birth_rates(3, BETA, 1.0, 1.0)[:-1]
        assert rates[0] == pytest.approx(rates[1])
        holders, relays = _rank_time_averages(rates, 2)
        assert holders == pytest.approx(1.25, rel=1e-3)
        assert relays == pytest.approx(0.25, rel=1e-3)

    def test_degenerate_rates_fall_back_to_lone_holder(self):
        assert _rank_time_averages(np.array([0.0, 1.0]), 2) == (1.0, 0.0)


class TestSurrogateRun:
    def run_cell(self, protocol=None, *, k=10, horizon=200_000.0, **cfg):
        return surrogate_run(
            paper_model(horizon),
            protocol or make_protocol_config("pure"),
            [Flow(0, 0, 1, k)],
            config=SimulationConfig(**cfg) if cfg else None,
            seed=4,
        )

    def test_emits_complete_run_result(self):
        res = self.run_cell()
        assert isinstance(res, RunResult)
        assert res.protocol == "pure" and res.load == 10 and res.seed == 4
        assert res.success and res.delivered == 10
        assert res.delivery_ratio == pytest.approx(1.0, abs=1e-3)
        assert res.end_time == res.delay
        assert res.signaling == {
            "anti_packet": 0, "immunity_table": 0, "summary_vector": 0
        }

    def test_delay_matches_rank_sum(self):
        """E[T] = Σ_j P(R ≥ j)/λ_j = Σ_j (N − j) / ((N − 1) λ_j)."""
        rates = _birth_rates(N, BETA, 1.0, 1.0)
        expected = sum((N - j) / ((N - 1) * rates[j - 1]) for j in range(1, N))
        assert self.run_cell().delay == pytest.approx(expected, rel=0.01)

    def test_rejects_active_fault_spec(self):
        """Satellite acceptance: the mean-field surrogate has no node
        identity to crash or link to sever — a non-trivial FaultSpec is
        refused, never silently ignored."""
        from repro.faults import FaultSpec

        with pytest.raises(ValueError, match="unsupported by the surrogate"):
            self.run_cell(
                faults=FaultSpec(churn_rate=1e-4, mean_downtime=100.0)
            )

    def test_trivial_fault_spec_is_fine(self):
        from repro.faults import FaultSpec

        res = self.run_cell(faults=FaultSpec())
        assert res == self.run_cell()

    def test_deterministic_across_seeds(self):
        a = self.run_cell()
        b = dataclasses.replace(self.run_cell(), seed=a.seed)
        assert a == b

    def test_occupancy_scales_with_load(self):
        lo = self.run_cell(k=10)
        hi = self.run_cell(k=20)
        assert hi.buffer_occupancy == pytest.approx(2 * lo.buffer_occupancy, rel=1e-6)
        assert hi.peak_occupancy == pytest.approx(2 * lo.peak_occupancy, rel=1e-6)

    def test_peak_occupancy_reflects_uniform_rank(self):
        """E[relays at delivery] = mean rank − 1 = (N − 1)/2 − 1/2 = N/2 − 1."""
        res = self.run_cell(k=1, buffer_capacity=64)
        assert res.peak_occupancy == pytest.approx(
            (N / 2 - 1) / (64.0 * N), rel=0.01
        )

    def test_short_horizon_fails_cell(self):
        res = self.run_cell(horizon=500.0)
        assert not res.success and res.delay is None
        assert res.end_time == 500.0
        assert res.delivery_ratio < 0.5

    def test_occupancy_series_opt_in(self):
        assert self.run_cell().occupancy_series is None
        res = self.run_cell(record_occupancy=True)
        assert res.occupancy_series is not None
        times = [t for t, _ in res.occupancy_series]
        fills = [v for _, v in res.occupancy_series]
        assert times == sorted(times) and times[-1] <= res.end_time + 1e-9
        assert all(0.0 <= v <= 1.0 for v in fills)

    def test_calibrates_beta_from_real_traces(self):
        trace = generate_poisson_trace(
            PoissonContactConfig(
                num_nodes=20, beta=2e-4, horizon=40_000.0, duration=40.0
            ),
            seed=2,
        )
        res = surrogate_run(
            trace,
            make_protocol_config("pure"),
            [Flow(0, 0, 1, 5)],
            config=SimulationConfig(bundle_tx_time=1.0),
        )
        assert res.success

    def test_rejects_unmodelable_workloads(self):
        model = paper_model()
        pure = make_protocol_config("pure")
        with pytest.raises(ValueError, match="single-flow"):
            surrogate_run(model, pure, [Flow(0, 0, 1, 5), Flow(1, 2, 3, 5)])
        with pytest.raises(ValueError, match="t=0"):
            surrogate_run(model, pure, [Flow(0, 0, 1, 5, created_at=10.0)])
        with pytest.raises(ValueError, match="outside"):
            surrogate_run(model, pure, [Flow(0, 0, N + 3, 5)])
        with pytest.raises(UnsupportedProtocolError):
            surrogate_run(model, make_protocol_config("ec"), [Flow(0, 0, 1, 5)])


class TestEngineDispatch:
    def test_sweep_runs_on_the_surrogate(self):
        result = run_sweep(
            paper_model(),
            [make_protocol_config("pure"), make_protocol_config("pq", p=1.0, q=1.0)],
            SweepConfig(
                loads=(5, 10),
                replications=3,
                master_seed=11,
                sim=SimulationConfig(engine="ode"),
            ),
        )
        assert len(result) == 12
        for run in result.runs:
            assert run.success and run.delay is not None

    def test_fluid_scale_is_fast_and_matches_theory(self):
        n, beta = 100_000, 1.25e-9
        result = run_sweep(
            make_analytic_model(num_nodes=n, beta=beta, horizon=4_000_000.0),
            [make_protocol_config("pure")],
            SweepConfig(
                loads=(10,),
                replications=2,
                master_seed=1,
                sim=SimulationConfig(engine="ode"),
            ),
        )
        theory = math.log(n) / (beta * (n - 1))
        for run in result.runs:
            assert run.delay == pytest.approx(theory, rel=0.01)

    def test_engine_knob_validated(self):
        with pytest.raises(ValueError):
            SimulationConfig(engine="quantum")
