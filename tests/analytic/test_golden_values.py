"""Golden values for the analytic stack.

Pins the surrogate and the classical ODE results to closed forms and to
independently computed reference numbers (Gillespie simulation of the
birth chain at the paper-scale 36-node Poisson population), so a silent
regression in the integration or the rank decomposition shows up as a
number, not a vibe. Plus the calibration property: meeting-rate estimates
converge to the true β as the observation window grows.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytic.epidemic_ode import mean_delivery_delay
from repro.analytic.meeting_rate import estimate_meeting_rate
from repro.analytic.surrogate import make_analytic_model, surrogate_run
from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import SimulationConfig
from repro.core.workload import Flow
from repro.mobility.poisson import PoissonContactConfig, generate_poisson_trace

#: The reference population: n = 36 nodes, β = 1/6000 meetings/s/pair.
N, BETA = 36, 1.0 / 6000.0

#: Gillespie ground truth for (N, BETA), 200k-sample ensemble of the
#: pure-epidemic birth chain (rank-uniform destination):
#:   E[T] = 704 ± 2,  E[(1/T)∫I dt]/N = 0.1988 ± 0.0004.
GILLESPIE_DELAY = 704.0
GILLESPIE_DUP = 0.1988


def run_pure(k=1):
    return surrogate_run(
        make_analytic_model(num_nodes=N, beta=BETA, horizon=200_000.0),
        make_protocol_config("pure"),
        [Flow(0, 0, 1, k)],
        config=SimulationConfig(buffer_capacity=64, bundle_tx_time=1.0),
    )


class TestGoldenValues:
    def test_exact_delay_closed_form(self):
        """E[T] = (1/(β(N−1))) Σ_{j=1}^{N−1} (N−j)/((N−j) j) = H_{N−1}/(β(N−1))."""
        harmonic = sum(1.0 / j for j in range(1, N))
        closed = harmonic / (BETA * (N - 1))
        assert closed == pytest.approx(710.9, rel=1e-3)  # the paper-scale number
        assert run_pure().delay == pytest.approx(closed, rel=0.01)

    def test_delay_matches_gillespie(self):
        assert run_pure().delay == pytest.approx(GILLESPIE_DELAY, rel=0.02)

    def test_duplication_matches_gillespie(self):
        """The rank decomposition closes the Jensen gap: the naive
        deterministic-window ratio sits ~15% below this."""
        assert run_pure().duplication_rate == pytest.approx(GILLESPIE_DUP, rel=0.02)

    def test_fluid_delay_law(self):
        """Large N: E[T] → ln(N)/(β(N−1)) exactly (closed-form logistic)."""
        for n, beta in ((100_000, 1.25e-9), (1_000_000, 2e-10)):
            res = surrogate_run(
                make_analytic_model(num_nodes=n, beta=beta, horizon=4_000_000.0),
                make_protocol_config("pure"),
                [Flow(0, 0, 1, 1)],
            )
            assert res.delay == pytest.approx(
                math.log(n) / (beta * (n - 1)), rel=0.005
            )

    def test_ode_mean_delay_is_the_fluid_law(self):
        assert mean_delivery_delay(N, BETA) == pytest.approx(
            math.log(N) / (BETA * (N - 1))
        )


class TestMeetingRateConvergence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @example(seed=8863)  # the short window lands exactly on β
    def test_estimate_converges_with_trace_length(self, seed):
        """β̂ from a Poisson trace approaches the generating β as the
        window grows: at every window the relative error stays within 5
        Poisson standard errors, 1 / sqrt(expected meetings), a bound
        that shrinks with the horizon. (Comparing against the shortest
        window's error instead fails whenever that one draw is lucky.)"""
        beta, n = 3e-4, 16
        pairs = n * (n - 1) // 2
        errors = []
        for horizon in (5_000.0, 40_000.0, 320_000.0):
            trace = generate_poisson_trace(
                PoissonContactConfig(
                    num_nodes=n, beta=beta, horizon=horizon, duration=5.0
                ),
                seed=seed,
            )
            est = estimate_meeting_rate(trace)
            error = abs(est - beta) / beta
            assert error <= 5.0 / math.sqrt(beta * pairs * horizon)
            errors.append(error)
        assert errors[-1] < 0.05

    def test_min_capacity_filters_short_contacts(self):
        trace = generate_poisson_trace(
            PoissonContactConfig(
                num_nodes=10, beta=2e-4, horizon=50_000.0, duration=20.0
            ),
            seed=3,
        )
        full = estimate_meeting_rate(trace)
        # only coalesced double-meetings exceed 30 s, so almost every
        # 20 s contact drops out of the carrying-rate estimate
        filtered = estimate_meeting_rate(trace, min_capacity=30.0)
        assert full > 0.0
        assert filtered < 0.02 * full
