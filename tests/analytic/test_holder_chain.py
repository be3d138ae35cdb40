"""The exact-regime integrator, its memoization, and β̂ counting.

``TestOracleIdentity`` pins the production integrator to the reference
stepping loop in ``tests/oracles/holder_chain.py`` bit for bit: any change
that moves one bit of ``(ts, mean, cond)`` fails it by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytic import surrogate
from repro.analytic.meeting_rate import estimate_meeting_rate
from repro.analytic.surrogate import holder_curves, surrogate_run
from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import SimulationConfig
from repro.core.workload import Flow
from repro.scenarios.spec import build_mobility
from tests.oracles.holder_chain import holder_curves_exact as oracle

BETA = 1e-3

#: (p, q): pure, p = 0 (never spreads), q = 0 (source only), fractional
COINS = [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.3, 0.7)]

#: horizons long enough for every chain to absorb before them
ABSORBING = [(2, 1e7), (3, 1e7), (12, 1e7), (36, 1e7)]

#: horizons that cut the spread short (N = 400 absorbs only after ~10^5
#: steps, so it is covered here and by the step cap)
TRUNCATING = [(2, 300.0), (3, 300.0), (12, 300.0), (36, 100.0), (400, 5.0)]


@pytest.fixture(autouse=True)
def fresh_caches():
    surrogate._solve_exact.cache_clear()
    surrogate._exact_rank_averages.cache_clear()
    yield
    surrogate._solve_exact.cache_clear()
    surrogate._exact_rank_averages.cache_clear()


def assert_identical(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g, w)


class TestOracleIdentity:
    @pytest.mark.parametrize("p,q", COINS)
    @pytest.mark.parametrize("n,horizon", ABSORBING + TRUNCATING)
    def test_matches_reference_loop(self, n, horizon, p, q):
        want = oracle(n, BETA, p, q, horizon)
        assert want[0][-1] == horizon
        assert_identical(surrogate._holder_curves_exact(n, BETA, p, q, horizon), want)
        # the memoized public entry point returns the same curves
        assert_identical(holder_curves(n, BETA, p, q, horizon), want)

    def test_absorbing_horizon_extends_flat(self):
        ts, mean, _cond = surrogate._holder_curves_exact(12, BETA, 1.0, 1.0, 1e7)
        assert ts[-2] < 1e7 and mean[-1] == mean[-2]

    # chains that are still spreading when the cap's 500 steps reach
    # 4·Σ1/λ (a 36-node pure chain absorbs just before it)
    @pytest.mark.parametrize("n,p,q", [(36, 0.3, 0.7), (400, 1.0, 1.0), (400, 0.3, 0.7)])
    def test_step_cap(self, monkeypatch, n, p, q):
        monkeypatch.setattr(surrogate, "_MAX_STEPS", 500)
        got = surrogate._holder_curves_exact(n, BETA, p, q, 1e7)
        # every capped step is recorded (stride 1), then the flat tail
        assert got[0].size == 500 + 2
        assert_identical(got, oracle(n, BETA, p, q, 1e7))

    def test_record_blocks_span_several_flushes(self):
        # a 36-node chain records ~2.9k points: more than ten full blocks
        ts, _mean, _cond = surrogate._holder_curves_exact(36, BETA, 1.0, 1.0, 1e7)
        assert ts.size > 10 * surrogate._RECORD_BLOCK


class TestMemoizedSolve:
    def test_returned_curves_cannot_corrupt_the_cache(self):
        first = holder_curves(36, BETA, 1.0, 1.0, 1e7)
        for curve in first:
            curve[:] = -1.0
        again = holder_curves(36, BETA, 1.0, 1.0, 1e7)
        assert_identical(again, oracle(36, BETA, 1.0, 1.0, 1e7))

    def test_cached_arrays_are_read_only(self):
        for curve in surrogate._solve_exact(12, BETA, 1.0, 1.0, 1e7):
            assert not curve.flags.writeable
            with pytest.raises(ValueError):
                curve[0] = 0.0

    def test_cache_is_bounded(self):
        assert surrogate._solve_exact.cache_info().maxsize == surrogate._SOLVE_CACHE_SIZE
        assert surrogate._exact_rank_averages.cache_info().maxsize is not None

    def test_pure_and_pq_cells_on_one_trace_solve_once(self, monkeypatch):
        calls = []
        real = surrogate._holder_curves_exact

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(surrogate, "_holder_curves_exact", counting)
        trace = build_mobility(
            "poisson",
            seed=3,
            num_nodes=36,
            beta=1.0 / 6000.0,
            horizon=50_000.0,
            duration=40.0,
        )
        config = SimulationConfig(buffer_capacity=64, bundle_tx_time=1.0, engine="ode")
        flows = [Flow(0, 0, 1, 10)]
        pure = surrogate_run(trace, make_protocol_config("pure"), flows, config=config)
        pq = surrogate_run(
            trace, make_protocol_config("pq", p=1.0, q=1.0), flows, config=config
        )
        assert len(calls) == 1
        assert surrogate._exact_rank_averages.cache_info().misses == 1
        assert pure.delivery_ratio == pq.delivery_ratio
        assert pure.duplication_rate == pq.duplication_rate


def _loop_rate(trace, min_capacity):
    """β̂ counted one Contact at a time (the definition)."""
    pairs = trace.num_nodes * (trace.num_nodes - 1) // 2
    meetings = sum(1 for c in trace if c.duration >= min_capacity)
    return meetings / (trace.horizon * pairs)


class TestMeetingRateCount:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("rwp", {"num_nodes": 8, "horizon": 20_000.0}),
            (
                "poisson",
                {"num_nodes": 12, "beta": 5e-4, "horizon": 20_000.0, "duration": 40.0},
            ),
        ],
    )
    def test_columns_count_like_the_contact_loop(self, kind, params):
        trace = build_mobility(kind, seed=5, **params)
        assert len(trace) > 0
        durations = sorted(c.duration for c in trace)
        # thresholds below, at (ties count) and between real durations
        probes = [0.0, 1.0, durations[0], durations[len(durations) // 2], durations[-1]]
        probes.append(durations[-1] + 1.0)
        for min_capacity in probes:
            assert estimate_meeting_rate(trace, min_capacity=min_capacity) == _loop_rate(
                trace, min_capacity
            )
