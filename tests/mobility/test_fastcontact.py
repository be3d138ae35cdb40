"""Vectorized contact extraction: bit-identity with the scalar oracle
(``tests/oracles/scalar_contacts.py``)."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import Simulation
from repro.core.workload import Flow
from repro.mobility import fastcontact
from repro.mobility.fastcontact import (
    _blockwise_windows,
    _candidate_segment_pairs,
    _fold_windows,
    contacts_from_trajectories,
)
from repro.mobility.rwp import (
    ClassicRWP,
    ClassicRWPConfig,
    RWPConfig,
    SubscriberPointRWP,
)
from tests.oracles.rwp_trajectory import ReferenceClassicRWP, ReferenceSubscriberPointRWP
from tests.oracles.scalar_contacts import (
    Segment,
    Trajectory,
    columns_from_trajectories,
    exact_contacts,
    merge_windows,
)


def _pause(t0, t1, x, y):
    return Segment(t0, t1, x, y, x, y)


def rows(trace):
    return [(c.start, c.end, c.a, c.b) for c in trace]


def fast_contacts(trajectories, comm_range, **kwargs):
    """The vectorized extractor on the trajectories' segment columns."""
    return contacts_from_trajectories(
        columns_from_trajectories(trajectories), comm_range, **kwargs
    )


def both_engines(trajectories, comm_range, **kwargs):
    """The scalar oracle's trace and the vectorized extractor's."""
    exact = exact_contacts(trajectories, comm_range, **kwargs)
    return exact, fast_contacts(trajectories, comm_range, **kwargs)


def oracle_trace(reference, config, name=""):
    """The scalar oracle's trace of a reference generator's trajectories,
    with the arguments the production ``generate()`` passes."""
    return exact_contacts(
        reference.generate_trajectories(),
        config.comm_range,
        contact_cap=config.contact_cap,
        horizon=config.horizon,
        name=name,
    )


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
    """The vectorized extractor and the oracle refuse the same inputs."""

    def test_bad_comm_range_rejected_by_both(self):
        t = [Trajectory(0, [_pause(0, 10, 0, 0)]), Trajectory(1, [_pause(0, 10, 1, 0)])]
        for extract in (exact_contacts, fast_contacts):
            with pytest.raises(ValueError, match="comm_range"):
                extract(t, 0.0)

    def test_bad_node_ids_rejected_by_both(self):
        t = [Trajectory(0, [_pause(0, 10, 0, 0)]), Trajectory(5, [_pause(0, 10, 1, 0)])]
        for extract in (exact_contacts, fast_contacts):
            with pytest.raises(ValueError, match="node ids"):
                extract(t, 5.0)


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
        """Any positive piece displacement cap (the broad phase's private
        ``cell_size``) yields the same contacts."""
        cfg = RWPConfig(num_nodes=8, horizon=20_000.0)
        segments = SubscriberPointRWP(cfg, seed=11).generate_segments()

        def contacts(cell_size):
            windows = _blockwise_windows(segments, cfg.comm_range, cell_size)
            cols = _fold_windows(*windows, contact_cap=cfg.contact_cap, min_duration=1.0)
            return [col.tolist() for col in cols]

        base = contacts(None)
        assert len(base[0]) > 0
        for cell in (7.5, 40.0, 400.0):
            assert contacts(cell) == base


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


@given(
    trajectory_sets(),
    st.sampled_from([5.0, 25.0, 80.0]),
    st.sampled_from([1, 2, 3, fastcontact._BLOCK_ROWS]),
)
@settings(max_examples=80, deadline=None)
def test_property_engines_produce_identical_traces(trajectories, comm_range, block_rows):
    # at most about 1,300 pieces: small blocks split them, the default never does
    with mock.patch.object(fastcontact, "_BLOCK_ROWS", block_rows):
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

#: Block sizes the gate-scale identity runs at: the module's own, one row, a
#: small prime, and more rows than any of its populations has pieces (35,619
#: at 80 nodes).
BLOCK_ROWS = [
    pytest.param(None, id="default-blocks"),
    pytest.param(1, id="1-row-blocks"),
    pytest.param(7, id="7-row-blocks"),
    pytest.param(1 << 40, id="one-block"),
]


def gate_scale_config(num_nodes):
    return RWPConfig(num_nodes=num_nodes, horizon=40_000.0)


@functools.cache
def gate_scale_exact(num_nodes):
    """The scalar oracle's trace of a gate-scale population (seed 7); it
    does not depend on the extractor's block size, so it is built once."""
    cfg = gate_scale_config(num_nodes)
    return exact_contacts(
        SubscriberPointRWP(cfg, seed=7).generate_segments(),
        cfg.comm_range,
        contact_cap=cfg.contact_cap,
        horizon=cfg.horizon,
    )


class TestSeededRWPScenarios:
    """Each model's ``generate()`` against the scalar oracle run on the
    reference trajectory loop's objects (``tests/oracles/``)."""

    def test_subscriber_rwp_trace_equivalence(self):
        cfg = RWPConfig(num_nodes=10, horizon=60_000.0)
        exact = oracle_trace(ReferenceSubscriberPointRWP(cfg, seed=7), cfg)
        fast = SubscriberPointRWP(cfg, seed=7).generate()
        assert_equivalent(exact, fast)
        assert rows(exact) == rows(fast)

    def test_subscriber_rwp_full_horizon_equivalence(self):
        # the paper's full 600,000 s horizon — long spans stress the
        # broad phase's time quantization
        cfg = RWPConfig(num_nodes=5, horizon=600_000.0)
        exact = oracle_trace(ReferenceSubscriberPointRWP(cfg, seed=2), cfg)
        fast = SubscriberPointRWP(cfg, seed=2).generate()
        assert rows(exact) == rows(fast)

    def test_classic_rwp_trace_equivalence(self):
        # a 1 s horizon leaves one clipped move or pause per node
        for seed, num_nodes, horizon in [(9, 8, 30_000.0), (3, 5, 1.0)]:
            cfg = ClassicRWPConfig(num_nodes=num_nodes, horizon=horizon)
            exact = oracle_trace(ReferenceClassicRWP(cfg, seed=seed), cfg)
            fast = ClassicRWP(cfg, seed=seed).generate()
            assert_equivalent(exact, fast)
            assert_same_columns(exact, fast)

    def test_run_results_identical_across_engines(self):
        cfg = RWPConfig(num_nodes=10, horizon=60_000.0)
        flows = [Flow(flow_id=0, source=0, destination=9, num_bundles=5)]
        results = [
            Simulation(trace, make_protocol_config("pq"), flows, seed=11).run()
            for trace in (
                SubscriberPointRWP(cfg, seed=7).generate(),
                oracle_trace(
                    ReferenceSubscriberPointRWP(cfg, seed=7), cfg, "rwp-subscriber(seed=7)"
                ),
            )
        ]
        assert results[0] == results[1]

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    @pytest.mark.parametrize("num_nodes", [12, 40, 80])
    def test_gate_scale_engines_and_cold_build_agree(self, num_nodes, block_rows, monkeypatch):
        """Over 40,000 s, the scalar oracle and the whole cold build
        (``generate()``) emit the same columns, bit for bit, at the
        extractor's block size and with blocks of one row, of a small
        prime number of rows, and of more rows than the population has
        pieces (one block)."""
        if block_rows is not None:
            monkeypatch.setattr(fastcontact, "_BLOCK_ROWS", block_rows)
        generator = SubscriberPointRWP(gate_scale_config(num_nodes), seed=7)
        assert_same_columns(gate_scale_exact(num_nodes), generator.generate())

    def test_small_blocks_meet_segment_pairs_twice(self, monkeypatch):
        """The block-boundary runs above do exercise repeated windows: with
        seven-row blocks some segment pair is yielded by two blocks, and
        with one block none is."""

        def yielded(block_rows):
            monkeypatch.setattr(fastcontact, "_BLOCK_ROWS", block_rows)
            cfg = gate_scale_config(12)
            segments = SubscriberPointRWP(cfg, seed=7).generate_segments()
            pairs = _candidate_segment_pairs(segments, cfg.comm_range)
            return np.concatenate([a * segments.t0.size + b for a, b in pairs])

        one_block = yielded(1 << 40)
        assert np.unique(one_block).size == one_block.size
        small = yielded(7)
        assert np.unique(small).size == one_block.size < small.size


# ---------------------------------------------------------------------------
# the array window fold against the scalar merge + cap + min-duration path


def scalar_fold(windows, *, contact_cap, min_duration):
    """Per pair: ``merge_windows``, then the cap and the minimum duration
    exactly as the scalar oracle applies them; sorted rows."""
    by_pair = {}
    for s, e, a, b in windows:
        by_pair.setdefault((a, b), []).append((s, e))
    rows = []
    for (a, b), spans in by_pair.items():
        for s, e in merge_windows(spans):
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

    @given(
        window_lists(),
        st.data(),
        st.sampled_from([None, 1.0, 500.0]),
        st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_repeated_windows_change_nothing(self, windows, data, contact_cap, min_duration):
        """A segment pair met in two blocks gives its windows twice: folding
        a list with copies of any of its windows gives the list's own
        contacts, on the array fold as on the scalar fold."""
        copies = data.draw(st.lists(st.sampled_from(windows), max_size=6)) if windows else []
        kwargs = dict(contact_cap=contact_cap, min_duration=min_duration)
        expected = scalar_fold(windows, **kwargs)
        assert scalar_fold(windows + copies, **kwargs) == expected
        assert array_fold(windows + copies, **kwargs) == expected

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


# ---------------------------------------------------------------------------
# memory: one block of candidates at a time


class TestExtractionMemory:
    #: Traced bytes one extraction may allocate at its peak. Extracting the
    #: population below all at once (every candidate pair of every piece in
    #: one array) peaked at about 41 MB; block by block it peaks at about
    #: 9 MB, measured with NumPy 2.4.
    PEAK_BOUND = 20_000_000

    def test_200_node_extraction_peak_is_bounded(self):
        """``tracemalloc`` peak of one ``contacts_from_trajectories`` call on a
        200-node, 20,000 s subscriber-RWP population (seed 7)."""
        cfg = RWPConfig(num_nodes=200, horizon=20_000.0)
        segments = SubscriberPointRWP(cfg, seed=7).generate_segments()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trace = contacts_from_trajectories(
                segments, cfg.comm_range, contact_cap=cfg.contact_cap, horizon=cfg.horizon
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert trace.contact_arrays()[0].size == 24_990
        assert peak - before < self.PEAK_BOUND
