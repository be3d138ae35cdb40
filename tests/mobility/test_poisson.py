"""Homogeneous Poisson contact generation (the analytic model's twin)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mobility.contact import ContactTrace
from repro.mobility.poisson import PoissonContactConfig, generate_poisson_trace
from tests.oracles import poisson_trace as oracle


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = PoissonContactConfig()
        assert cfg.num_nodes == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"beta": 0.0},
            {"beta": -1e-4},
            {"horizon": 0.0},
            {"duration": 0.0},
            # the ODE gate's 36-node, 50,000 s reference at a mistyped
            # rate: about 78.75 million expected meetings
            {"num_nodes": 36, "beta": 2.5, "horizon": 50_000.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PoissonContactConfig(**kwargs)


class TestGeneratedTrace:
    CFG = PoissonContactConfig(num_nodes=12, beta=1e-4, horizon=30_000.0, duration=30.0)

    def test_shape_and_bounds(self):
        trace = generate_poisson_trace(self.CFG, seed=3)
        assert trace.num_nodes == 12
        assert trace.horizon == pytest.approx(30_000.0)
        assert len(trace) > 0
        for c in trace:
            assert 0.0 <= c.start < c.end <= 30_000.0
            assert c.a != c.b

    def test_per_pair_windows_disjoint(self):
        trace = generate_poisson_trace(self.CFG, seed=5)
        by_pair: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for c in trace:
            by_pair.setdefault((c.a, c.b), []).append((c.start, c.end))
        for windows in by_pair.values():
            windows.sort()
            for (_, end), (start, _) in zip(windows, windows[1:]):
                assert start >= end

    def test_deterministic_per_seed(self):
        def flat(trace):
            return [(c.start, c.end, c.a, c.b) for c in trace]

        a = generate_poisson_trace(self.CFG, seed=9)
        b = generate_poisson_trace(self.CFG, seed=9)
        c = generate_poisson_trace(self.CFG, seed=10)
        assert flat(a) == flat(b)
        assert flat(a) != flat(c)

    def test_empirical_rate_matches_beta(self):
        """Meetings per pair per second concentrates around β."""
        cfg = PoissonContactConfig(
            num_nodes=30, beta=2e-4, horizon=50_000.0, duration=10.0
        )
        trace = generate_poisson_trace(cfg, seed=1)
        pairs = 30 * 29 / 2
        rate = len(trace) / (pairs * cfg.horizon)
        assert rate == pytest.approx(2e-4, rel=0.05)


def trace_bytes(trace):
    """Every column's dtype and raw bytes, the horizon and the name: equal
    only when the traces are equal bit for bit."""
    cols = [(str(c.dtype), c.tobytes()) for c in trace.contact_arrays()]
    return cols, trace.num_nodes, trace.horizon, trace.name


@st.composite
def poisson_configs(draw):
    """Populations of 2–9 nodes with up to ~60 expected meetings per pair,
    and encounters from far below to far above the mean gap 1/β, so
    windows fuse often and clip at the horizon."""
    horizon = draw(st.floats(1.0, 1e5))
    beta = draw(st.floats(1e-3, 60.0)) / horizon
    duration = draw(st.floats(1e-4, 50.0)) / beta
    return PoissonContactConfig(
        num_nodes=draw(st.integers(2, 9)), beta=beta, horizon=horizon, duration=duration
    )


class TestOracleIdentity:
    """The columnar generator against the scalar loop it replaced
    (``tests/oracles/poisson_trace.py``): same random stream, same trace
    bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(cfg=poisson_configs(), seed=st.integers(0, 2**33))
    def test_columns_match_oracle(self, cfg, seed):
        got = generate_poisson_trace(cfg, seed=seed)
        assert trace_bytes(got) == trace_bytes(oracle.generate_poisson_trace(cfg, seed=seed))

    @pytest.mark.parametrize(
        "cfg,shape",
        [
            # 40 s encounters about every 10 s per pair: most windows fuse
            (PoissonContactConfig(num_nodes=6, beta=0.1, horizon=2_000.0, duration=40.0), "fused"),
            # nothing meets before the horizon
            (PoissonContactConfig(num_nodes=5, beta=1e-9, horizon=100.0, duration=1.0), "empty"),
            # encounters longer than the window: each pair's last is clipped
            (PoissonContactConfig(num_nodes=4, beta=1e-3, horizon=500.0, duration=900.0), "clipped"),
            (PoissonContactConfig(num_nodes=36, beta=1 / 6000, horizon=50_000.0, duration=40.0), "gate"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_edge_shapes_match_oracle(self, cfg, shape, seed):
        got = generate_poisson_trace(cfg, seed=seed)
        assert trace_bytes(got) == trace_bytes(oracle.generate_poisson_trace(cfg, seed=seed))
        starts, ends, _, _ = got.contact_arrays()
        if shape == "fused":
            assert np.any(ends - starts > cfg.duration)
        elif shape == "empty":
            assert len(got) == 0
        elif shape == "clipped":
            assert np.any(ends == cfg.horizon)

    def test_builds_no_contact_objects(self):
        trace = generate_poisson_trace(TestGeneratedTrace.CFG, seed=3)
        assert "contacts" not in vars(trace)


#: Start times on a coarse grid, so equal starts, touching and nested
#: windows are common.
_STARTS = [0.0, 0.5, 1.0, 2.5, 10.0, 12.5, 40.0]


@st.composite
def contact_rows(draw):
    """Per-pair windows: duplicates, nested and overlapping ones, equal
    starts, and chains where one window starts exactly where another
    ends or just after it."""
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        a, b = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)))
        kind = draw(st.sampled_from(["fresh", "duplicate", "nested", "touch", "gap", "overlap"]))
        same_pair = [r for r in rows if (r[2], r[3]) == (a, b)]
        if kind == "fresh" or not same_pair:
            s = draw(st.sampled_from(_STARTS))
            rows.append((s, s + draw(st.sampled_from([0.25, 1.0, 2.5, 30.0])), a, b))
            continue
        ps, pe, _, _ = draw(st.sampled_from(same_pair))
        if kind == "duplicate":
            rows.append((ps, pe, a, b))
        elif kind == "nested":
            rows.append((ps + (pe - ps) / 4, pe - (pe - ps) / 4, a, b))
        elif kind == "touch":
            rows.append((pe, pe + 1.0, a, b))
        elif kind == "gap":
            rows.append((np.nextafter(pe, np.inf), pe + 1.0, a, b))
        else:
            rows.append(((ps + pe) / 2, pe + 3.0, a, b))
    return rows


class TestCoalescedIdentity:
    """``ContactTrace.coalesced`` (the array fold at a zero gap) against
    the per-pair loop it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(rows=contact_rows(), extra=st.sampled_from([0.0, 7.0]))
    def test_matches_pair_loop(self, rows, extra):
        horizon = max((e for _, e, _, _ in rows), default=0.0) + extra
        trace = ContactTrace.from_tuples(rows, 4, horizon=horizon, name="drawn")
        fused = trace.coalesced()
        assert trace_bytes(fused) == trace_bytes(oracle.coalesced(trace))
        fused.validate_disjoint_pairs()
