"""Vectorized contact extraction: equivalence with the exact scalar engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import Simulation
from repro.core.workload import Flow
from repro.mobility.fastcontact import _fold_windows, extract_contacts_fast
from repro.mobility.rwp import (
    ClassicRWP,
    ClassicRWPConfig,
    RWPConfig,
    SubscriberPointRWP,
)
from repro.mobility.trajectory import (
    CONTACT_ENGINES,
    Segment,
    Trajectory,
    _merge_windows,
    contacts_from_trajectories,
)
from repro.scenarios import MobilitySpec


def _pause(t0, t1, x, y):
    return Segment(t0, t1, x, y, x, y)


def rows(trace):
    return [(c.start, c.end, c.a, c.b) for c in trace]


def both_engines(trajectories, comm_range, **kwargs):
    exact = contacts_from_trajectories(
        trajectories, comm_range, engine="exact", **kwargs
    )
    fast = contacts_from_trajectories(trajectories, comm_range, engine="fast", **kwargs)
    return exact, fast


def assert_equivalent(exact, fast, *, tolerance=1e-6):
    """Same pairs, same window counts, windows within ``tolerance`` seconds."""
    assert len(exact) == len(fast)
    assert [c.pair for c in exact] == [c.pair for c in fast]
    for ce, cf in zip(exact, fast, strict=True):
        assert abs(ce.start - cf.start) <= tolerance
        assert abs(ce.end - cf.end) <= tolerance


def assert_same_columns(a, b):
    """Same population, horizon and contact columns, bit for bit."""
    assert (a.num_nodes, a.horizon) == (b.num_nodes, b.horizon)
    for x, y in zip(a.contact_arrays(), b.contact_arrays(), strict=True):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        t = [Trajectory(0, [_pause(0, 10, 0, 0)]), Trajectory(1, [_pause(0, 10, 1, 0)])]
        with pytest.raises(ValueError, match="unknown contact engine"):
            contacts_from_trajectories(t, 5.0, engine="sampling")

    def test_engines_tuple_stable(self):
        assert CONTACT_ENGINES == ("fast", "exact")

    def test_bad_comm_range_rejected_by_both(self):
        t = [Trajectory(0, [_pause(0, 10, 0, 0)]), Trajectory(1, [_pause(0, 10, 1, 0)])]
        for engine in CONTACT_ENGINES:
            with pytest.raises(ValueError, match="comm_range"):
                contacts_from_trajectories(t, 0.0, engine=engine)

    def test_bad_node_ids_rejected_by_both(self):
        t = [Trajectory(0, [_pause(0, 10, 0, 0)]), Trajectory(5, [_pause(0, 10, 1, 0)])]
        for engine in CONTACT_ENGINES:
            with pytest.raises(ValueError, match="node ids"):
                contacts_from_trajectories(t, 5.0, engine=engine)


class TestHandcraftedEquivalence:
    def test_static_pair_in_range(self):
        t = [
            Trajectory(0, [_pause(0.0, 400.0, 0.0, 0.0)]),
            Trajectory(1, [_pause(50.0, 300.0, 3.0, 4.0)]),
        ]
        exact, fast = both_engines(t, 6.0, min_duration=1.0, contact_cap=None)
        assert rows(fast) == [(50.0, 300.0, 0, 1)]
        assert rows(exact) == rows(fast)

    def test_crossing_paths(self):
        t = [
            Trajectory(0, [Segment(0.0, 100.0, 0.0, 0.0, 100.0, 0.0)]),
            Trajectory(1, [Segment(0.0, 100.0, 100.0, 0.0, 0.0, 0.0)]),
        ]
        exact, fast = both_engines(t, 10.0, contact_cap=None, min_duration=0.0)
        assert rows(exact) == rows(fast)
        assert len(fast) == 1

    def test_far_apart_nodes_never_meet(self):
        t = [
            Trajectory(0, [_pause(0.0, 1000.0, 0.0, 0.0)]),
            Trajectory(1, [_pause(0.0, 1000.0, 900.0, 900.0)]),
        ]
        exact, fast = both_engines(t, 25.0)
        assert rows(exact) == rows(fast) == []

    def test_disjoint_time_spans(self):
        t = [
            Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)]),
            Trajectory(1, [_pause(200.0, 300.0, 1.0, 0.0)]),
        ]
        exact, fast = both_engines(t, 25.0, min_duration=0.0)
        assert rows(exact) == rows(fast) == []

    def test_contact_cap_and_min_duration(self):
        t = [
            Trajectory(0, [_pause(0.0, 2000.0, 0.0, 0.0)]),
            Trajectory(1, [_pause(0.0, 2000.0, 1.0, 0.0)]),
        ]
        exact, fast = both_engines(t, 5.0, contact_cap=500.0, min_duration=1.0)
        assert rows(fast) == [(0.0, 500.0, 0, 1)]
        assert rows(exact) == rows(fast)

    def test_repeated_meetings_merge_identically(self):
        # node 1 oscillates: enters and leaves node 0's range repeatedly
        segs = []
        t = 0.0
        x = 0.0
        for _ in range(6):
            segs.append(Segment(t, t + 50.0, x, 0.0, 150.0 - x, 0.0))
            t += 50.0
            x = 150.0 - x
        t_list = [
            Trajectory(0, [_pause(0.0, 300.0, 95.0, 0.0)]),
            Trajectory(1, segs),
        ]
        exact, fast = both_engines(t_list, 20.0, contact_cap=None, min_duration=0.0)
        assert rows(exact) == rows(fast)
        assert len(fast) >= 2

    def test_horizon_forwarded(self):
        t = [
            Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)]),
            Trajectory(1, [_pause(0.0, 100.0, 1.0, 0.0)]),
        ]
        exact, fast = both_engines(t, 5.0, horizon=5_000.0)
        assert exact.horizon == fast.horizon == 5_000.0

    def test_cell_size_knob_does_not_change_results(self):
        cfg = RWPConfig(num_nodes=8, horizon=20_000.0)
        trajs = SubscriberPointRWP(cfg, seed=11).generate_trajectories()
        base = extract_contacts_fast(trajs, cfg.comm_range, horizon=cfg.horizon)
        for cell in (7.5, 40.0, 400.0):
            alt = extract_contacts_fast(
                trajs, cfg.comm_range, horizon=cfg.horizon, cell_size=cell
            )
            assert rows(alt) == rows(base)


# ---------------------------------------------------------------------------
# hypothesis: random trajectory sets

coords = st.floats(0.0, 300.0, allow_nan=False)
durations = st.floats(0.5, 400.0, allow_nan=False)


@st.composite
def trajectory_sets(draw):
    """2-5 nodes, each a random mix of pauses and moves from waypoints."""
    num_nodes = draw(st.integers(2, 5))
    trajectories = []
    for node in range(num_nodes):
        num_segments = draw(st.integers(1, 6))
        t = 0.0
        x, y = draw(coords), draw(coords)
        segments = []
        for _ in range(num_segments):
            dur = draw(durations)
            if draw(st.booleans()):  # pause
                nx, ny = x, y
            else:  # move to a fresh waypoint
                nx, ny = draw(coords), draw(coords)
            segments.append(Segment(t, t + dur, x, y, nx, ny))
            t += dur
            x, y = nx, ny
        trajectories.append(Trajectory(node, segments))
    return trajectories


@given(trajectory_sets(), st.sampled_from([5.0, 25.0, 80.0]))
@settings(max_examples=80, deadline=None)
def test_property_engines_produce_identical_traces(trajectories, comm_range):
    exact, fast = both_engines(
        trajectories, comm_range, contact_cap=500.0, min_duration=1.0
    )
    assert_equivalent(exact, fast, tolerance=1e-6)
    # the implementations promise more than the 1e-6 contract: bit-identity
    assert rows(exact) == rows(fast)
    assert exact.horizon == fast.horizon


@given(trajectory_sets())
@settings(max_examples=15, deadline=None)
def test_property_identical_downstream_run_results(trajectories):
    exact, fast = both_engines(
        trajectories, 40.0, contact_cap=500.0, min_duration=1.0, name="hyp"
    )
    flows = [Flow(flow_id=0, source=0, destination=len(trajectories) - 1, num_bundles=3)]
    result_exact = Simulation(exact, make_protocol_config("pq"), flows, seed=3).run()
    result_fast = Simulation(fast, make_protocol_config("pq"), flows, seed=3).run()
    assert result_exact == result_fast


# ---------------------------------------------------------------------------
# seeded RWP scenarios end-to-end

class TestSeededRWPScenarios:
    def test_subscriber_rwp_trace_equivalence(self):
        base = dict(num_nodes=10, horizon=60_000.0)
        exact = SubscriberPointRWP(RWPConfig(engine="exact", **base), seed=7).generate()
        fast = SubscriberPointRWP(RWPConfig(engine="fast", **base), seed=7).generate()
        assert_equivalent(exact, fast)
        assert rows(exact) == rows(fast)

    def test_subscriber_rwp_full_horizon_equivalence(self):
        # the paper's full 600,000 s horizon — long spans stress the
        # broad phase's time quantization
        base = dict(num_nodes=5, horizon=600_000.0)
        exact = SubscriberPointRWP(RWPConfig(engine="exact", **base), seed=2).generate()
        fast = SubscriberPointRWP(RWPConfig(engine="fast", **base), seed=2).generate()
        assert rows(exact) == rows(fast)

    def test_classic_rwp_trace_equivalence(self):
        base = dict(num_nodes=8, horizon=30_000.0)
        exact = ClassicRWP(ClassicRWPConfig(engine="exact", **base), seed=9).generate()
        fast = ClassicRWP(ClassicRWPConfig(engine="fast", **base), seed=9).generate()
        assert_equivalent(exact, fast)
        assert rows(exact) == rows(fast)

    def test_run_results_identical_across_engines(self):
        base = dict(num_nodes=10, horizon=60_000.0)
        results = {}
        for engine in CONTACT_ENGINES:
            trace = SubscriberPointRWP(
                RWPConfig(engine=engine, **base), seed=7
            ).generate()
            flows = [Flow(flow_id=0, source=0, destination=9, num_bundles=5)]
            results[engine] = Simulation(
                trace, make_protocol_config("pq"), flows, seed=11
            ).run()
        assert results["fast"] == results["exact"]

    @pytest.mark.parametrize("num_nodes", [12, 40, 80])
    def test_gate_scale_engines_and_cold_build_agree(self, num_nodes):
        """Over 40,000 s, the fast extractor, the exact engine and the whole
        cold build (``generate()``) emit the same columns, bit for bit."""
        cfg = RWPConfig(num_nodes=num_nodes, horizon=40_000.0)
        generator = SubscriberPointRWP(cfg, seed=7)
        exact, fast = both_engines(
            generator.generate_trajectories(),
            cfg.comm_range,
            contact_cap=cfg.contact_cap,
            horizon=cfg.horizon,
        )
        assert_same_columns(exact, fast)
        assert_same_columns(exact, generator.generate())

    def test_engine_threads_through_mobility_spec(self):
        params = dict(num_nodes=8, horizon=30_000.0)
        fast = MobilitySpec("rwp", {**params, "engine": "fast"}).build(seed=5)
        exact = MobilitySpec("rwp", {**params, "engine": "exact"}).build(seed=5)
        assert rows(fast) == rows(exact)

    def test_bad_engine_rejected_in_config(self):
        with pytest.raises(ValueError, match="unknown contact engine"):
            RWPConfig(engine="sampled")
        with pytest.raises(ValueError, match="unknown contact engine"):
            ClassicRWPConfig(engine="nope")


# ---------------------------------------------------------------------------
# the array window fold against the scalar merge + cap + min-duration path


def scalar_fold(windows, *, contact_cap, min_duration):
    """Per pair: ``_merge_windows``, then the cap and the minimum duration
    exactly as the ``engine="exact"`` path applies them; sorted rows."""
    by_pair = {}
    for s, e, a, b in windows:
        by_pair.setdefault((a, b), []).append((s, e))
    rows = []
    for (a, b), spans in by_pair.items():
        for s, e in _merge_windows(spans):
            if contact_cap is not None:
                e = min(e, s + contact_cap)
            if e - s >= min_duration:
                rows.append((s, e, a, b))
    return sorted(rows)


def array_fold(windows, *, contact_cap, min_duration):
    s, e, a, b = (list(col) for col in zip(*windows, strict=True)) if windows else ([],) * 4
    cols = _fold_windows(
        np.asarray(s, dtype=np.float64),
        np.asarray(e, dtype=np.float64),
        np.asarray(a, dtype=np.int64),
        np.asarray(b, dtype=np.int64),
        contact_cap=contact_cap,
        min_duration=min_duration,
    )
    return list(zip(*(col.tolist() for col in cols), strict=True))


#: Start times on a coarse grid, so equal starts and duplicates are common.
_BASES = [0.0, 1.0, 2.5, 10.0, 499.0, 500.0, 1000.0]
#: Window lengths around the minimum duration (1 s) and the cap (500 s).
_LENGTHS = [0.0, 1e-9, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 3.0, 499.999, 500.0, 500.5, 1200.0]


@st.composite
def window_lists(draw):
    """Adversarial per-pair windows: duplicates, nested windows, equal
    starts, and chains touching at exactly the 1e-9 merge gap or just
    beyond it."""
    windows = []
    for _ in range(draw(st.integers(0, 14))):
        a, b = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)))
        kind = draw(st.sampled_from(["fresh", "duplicate", "nested", "touch", "beyond", "same-start"]))
        same_pair = [w for w in windows if (w[2], w[3]) == (a, b)]
        if kind == "fresh" or not same_pair:
            s = draw(st.sampled_from(_BASES)) + draw(st.sampled_from([0.0, 0.25, 1e-9]))
            windows.append((s, s + draw(st.sampled_from(_LENGTHS)), a, b))
            continue
        ps, pe, _, _ = draw(st.sampled_from(same_pair))
        if kind == "duplicate":
            windows.append((ps, pe, a, b))
        elif kind == "nested":
            windows.append((ps + (pe - ps) / 4, ps + (pe - ps) / 2, a, b))
        elif kind == "same-start":
            windows.append((ps, ps + draw(st.sampled_from(_LENGTHS)), a, b))
        else:
            s = pe + 1e-9  # the largest start the scalar fold still merges
            if kind == "beyond":
                s = float(np.nextafter(s, math.inf))
            windows.append((s, s + draw(st.sampled_from(_LENGTHS)), a, b))
    return windows


class TestWindowFold:
    @given(
        window_lists(),
        st.sampled_from([None, 1.0, 499.999, 500.0]),
        st.sampled_from([0.0, 1.0, 500.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_array_fold_equals_scalar_fold(self, windows, contact_cap, min_duration):
        kwargs = dict(contact_cap=contact_cap, min_duration=min_duration)
        assert array_fold(windows, **kwargs) == scalar_fold(windows, **kwargs)

    def test_touching_windows_merge_and_beyond_splits(self):
        e = 10.0
        touch = e + 1e-9
        beyond = float(np.nextafter(touch, math.inf))
        kwargs = dict(contact_cap=None, min_duration=0.0)
        assert array_fold([(0.0, e, 0, 1), (touch, 20.0, 0, 1)], **kwargs) == [
            (0.0, 20.0, 0, 1)
        ]
        assert array_fold([(0.0, e, 0, 1), (beyond, 20.0, 0, 1)], **kwargs) == [
            (0.0, e, 0, 1),
            (beyond, 20.0, 0, 1),
        ]

    def test_earlier_long_window_keeps_absorbing(self):
        # the running max spans nested windows: the third window merges
        # with the first even though it starts after the second ends
        windows = [(0.0, 100.0, 0, 1), (10.0, 20.0, 0, 1), (50.0, 60.0, 0, 1)]
        kwargs = dict(contact_cap=None, min_duration=0.0)
        assert array_fold(windows, **kwargs) == [(0.0, 100.0, 0, 1)]
        assert scalar_fold(windows, **kwargs) == [(0.0, 100.0, 0, 1)]

    def test_empty(self):
        assert array_fold([], contact_cap=500.0, min_duration=1.0) == []
