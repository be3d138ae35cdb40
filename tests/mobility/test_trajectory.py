"""Segment columns, contact extraction from them, and the scalar oracle's
trajectory objects and per-pair windows (``tests/oracles/scalar_contacts.py``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mobility.fastcontact import contacts_from_trajectories
from repro.mobility.trajectory import SegmentColumns
from tests.oracles.scalar_contacts import (
    Segment,
    Trajectory,
    columns_from_trajectories,
    exact_contacts,
    pair_contact_windows,
    trajectories_from_columns,
)


def _pause(t0, t1, x, y):
    return Segment(t0, t1, x, y, x, y)


class TestSegment:
    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            Segment(5.0, 5.0, 0, 0, 1, 1)

    def test_velocity_and_speed(self):
        s = Segment(0.0, 10.0, 0.0, 0.0, 30.0, 40.0)
        assert s.vx == 3.0 and s.vy == 4.0
        assert s.speed == 5.0
        assert s.duration == 10.0

    def test_position_interpolates(self):
        s = Segment(0.0, 10.0, 0.0, 0.0, 10.0, 20.0)
        assert s.position(5.0) == (5.0, 10.0)
        with pytest.raises(ValueError):
            s.position(11.0)


class TestTrajectory:
    def test_requires_contiguous_time(self):
        with pytest.raises(ValueError, match="contiguous"):
            Trajectory(0, [_pause(0, 1, 0, 0), _pause(2, 3, 0, 0)])

    def test_requires_contiguous_space(self):
        with pytest.raises(ValueError, match="spatially"):
            Trajectory(0, [_pause(0, 1, 0, 0), _pause(1, 2, 5, 5)])

    def test_requires_segments(self):
        with pytest.raises(ValueError):
            Trajectory(0, [])

    def test_position_lookup(self):
        t = Trajectory(
            0,
            [
                Segment(0.0, 10.0, 0.0, 0.0, 10.0, 0.0),
                _pause(10.0, 20.0, 10.0, 0.0),
                Segment(20.0, 30.0, 10.0, 0.0, 10.0, 10.0),
            ],
        )
        assert t.position(5.0) == (5.0, 0.0)
        assert t.position(15.0) == (10.0, 0.0)
        assert t.position(25.0) == (10.0, 5.0)
        assert t.start_time == 0.0 and t.end_time == 30.0
        with pytest.raises(ValueError):
            t.position(31.0)

    def test_max_speed(self):
        t = Trajectory(
            0,
            [Segment(0.0, 10.0, 0.0, 0.0, 30.0, 40.0), _pause(10.0, 20.0, 30.0, 40.0)],
        )
        assert t.max_speed() == 5.0


class TestPairContactWindows:
    def test_static_nodes_in_range_whole_overlap(self):
        a = Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)])
        b = Trajectory(1, [_pause(10.0, 50.0, 3.0, 4.0)])  # distance 5
        assert pair_contact_windows(a, b, comm_range=6.0) == [(10.0, 50.0)]
        assert pair_contact_windows(a, b, comm_range=4.0) == []

    def test_crossing_nodes_quadratic_window(self):
        # b passes a at closest approach t=50, distance 0
        a = Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)])
        b = Trajectory(1, [Segment(0.0, 100.0, -50.0, 0.0, 50.0, 0.0)])
        [(s, e)] = pair_contact_windows(a, b, comm_range=10.0)
        assert s == pytest.approx(40.0)
        assert e == pytest.approx(60.0)

    def test_tangent_pass_no_contact(self):
        a = Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)])
        b = Trajectory(1, [Segment(0.0, 100.0, -50.0, 20.0, 50.0, 20.0)])
        assert pair_contact_windows(a, b, comm_range=10.0) == []

    def test_windows_merged_across_segment_boundaries(self):
        # b pauses in range across two consecutive segments
        a = Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)])
        b = Trajectory(
            1, [_pause(0.0, 50.0, 1.0, 0.0), _pause(50.0, 100.0, 1.0, 0.0)]
        )
        assert pair_contact_windows(a, b, comm_range=5.0) == [(0.0, 100.0)]

    def test_rejects_bad_range(self):
        a = Trajectory(0, [_pause(0.0, 1.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            pair_contact_windows(a, a, comm_range=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_brute_force_sampling(self, data):
        """The quadratic solver agrees with dense time sampling."""
        def random_traj(node):
            segs = []
            t = 0.0
            x = data.draw(st.floats(-100, 100))
            y = data.draw(st.floats(-100, 100))
            for _ in range(data.draw(st.integers(1, 4))):
                dur = data.draw(st.floats(5.0, 50.0))
                nx = data.draw(st.floats(-100, 100))
                ny = data.draw(st.floats(-100, 100))
                segs.append(Segment(t, t + dur, x, y, nx, ny))
                t += dur
                x, y = nx, ny
            return Trajectory(node, segs)

        ta, tb = random_traj(0), random_traj(1)
        rng = 30.0
        windows = pair_contact_windows(ta, tb, rng)
        t_end = min(ta.end_time, tb.end_time)
        step = 0.25
        n = int(t_end / step)
        for k in range(n):
            t = k * step
            ax, ay = ta.position(t)
            bx, by = tb.position(t)
            dist = math.hypot(ax - bx, ay - by)
            inside = any(s <= t <= e for s, e in windows)
            if dist < rng - 1e-6:
                assert inside, f"t={t}: dist {dist} < {rng} but not in {windows}"
            elif dist > rng + 1e-6:
                assert not inside, f"t={t}: dist {dist} > {rng} but in {windows}"


def _extract(trajectories, comm_range, **kwargs):
    return contacts_from_trajectories(
        columns_from_trajectories(trajectories), comm_range, **kwargs
    )


class TestContactsFromTrajectories:
    def _three(self):
        return [
            Trajectory(0, [_pause(0.0, 1000.0, 0.0, 0.0)]),
            Trajectory(1, [_pause(0.0, 1000.0, 10.0, 0.0)]),
            Trajectory(2, [_pause(0.0, 1000.0, 500.0, 0.0)]),
        ]

    def test_extracts_pairwise_contacts(self):
        trace = _extract(self._three(), comm_range=20.0, contact_cap=None)
        assert len(trace) == 1
        assert trace[0].pair == (0, 1)
        assert trace[0].duration == 1000.0

    def test_contact_cap_truncates(self):
        trace = _extract(self._three(), comm_range=20.0, contact_cap=500.0)
        assert trace[0].duration == 500.0

    def test_min_duration_filters(self):
        a = Trajectory(0, [_pause(0.0, 100.0, 0.0, 0.0)])
        b = Trajectory(1, [Segment(0.0, 100.0, -50.0, 0.0, 50.0, 0.0)])
        trace = _extract([a, b], comm_range=1.0, min_duration=5.0)
        assert len(trace) == 0

    def test_requires_dense_node_ids(self):
        a = Trajectory(0, [_pause(0.0, 1.0, 0.0, 0.0)])
        c = Trajectory(2, [_pause(0.0, 1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="node ids"):
            _extract([a, c], comm_range=1.0)

    def test_horizon_override(self):
        trace = _extract(self._three(), comm_range=20.0, contact_cap=None, horizon=5000.0)
        assert trace.horizon == 5000.0


def _columns(rows):
    """SegmentColumns from ``(node, t0, t1, x0, y0, x1, y1)`` rows."""
    node, *coords = zip(*rows, strict=True)
    return SegmentColumns(
        np.asarray(node, dtype=np.int64), *(np.asarray(c, dtype=np.float64) for c in coords)
    )


#: Two nodes: node 0 walks past node 1, which pauses then moves.
TWO_NODES = [
    (0, 0.0, 100.0, 0.0, 0.0, 100.0, 0.0),
    (0, 100.0, 250.0, 100.0, 0.0, 100.0, 0.0),
    (1, 0.0, 60.0, 50.0, 5.0, 50.0, 5.0),
    (1, 60.0, 250.0, 50.0, 5.0, 120.0, 5.0),
]


class TestSegmentColumns:
    def test_round_trip_through_trajectories(self):
        cols = _columns(TWO_NODES)
        trajectories = trajectories_from_columns(cols)
        assert [t.node for t in trajectories] == [0, 1]
        back = columns_from_trajectories(trajectories)
        assert all(np.array_equal(a, b) for a, b in zip(cols, back, strict=True))
        assert cols.num_nodes == 2
        assert cols.end_time == 250.0

    def test_from_trajectories_orders_nodes_in_blocks(self):
        trajectories = trajectories_from_columns(_columns(TWO_NODES))
        back = columns_from_trajectories(trajectories[::-1])
        assert back.node.tolist() == [0, 0, 1, 1]
        assert back.validated().node.tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "extract", [contacts_from_trajectories, exact_contacts], ids=["fast", "exact"]
    )
    def test_columns_extract_like_trajectories(self, extract):
        """Columns, and columns rebuilt from the oracle's objects, give
        the same trace."""
        cols = _columns(TWO_NODES)
        from_cols = extract(cols, 10.0, min_duration=0.0)
        from_objs = extract(
            columns_from_trajectories(trajectories_from_columns(cols)), 10.0, min_duration=0.0
        )
        assert len(from_cols) > 0
        assert from_cols.contact_arrays()[0].tolist() == from_objs.contact_arrays()[0].tolist()
        assert [(c.start, c.end, c.a, c.b) for c in from_cols] == [
            (c.start, c.end, c.a, c.b) for c in from_objs
        ]
        assert from_cols.horizon == from_objs.horizon == 250.0

    @pytest.mark.parametrize(
        ("edit", "match"),
        [
            ({1: (0, 100.0, 100.0, 100.0, 0.0, 100.0, 0.0)}, "t1 > t0"),
            ({1: (0, 100.0, math.nan, 100.0, 0.0, 100.0, 0.0)}, "t1 > t0"),
            ({1: (0, 100.0 + 2e-9, 250.0, 100.0, 0.0, 100.0, 0.0)}, "not contiguous"),
            ({1: (0, 100.0, 250.0, 100.0 + 2e-6, 0.0, 100.0, 0.0)}, "spatially"),
            ({1: (0, 100.0, 250.0, 100.0, math.inf, 100.0, 0.0)}, "spatially"),
            ({0: (1, 0.0, 100.0, 0.0, 0.0, 100.0, 0.0)}, "blocks"),
            ({2: (2, 0.0, 60.0, 50.0, 5.0, 50.0, 5.0), 3: (2, 60.0, 250.0, 50.0, 5.0, 120.0, 5.0)}, "blocks"),
            ({2: (0, 0.0, 60.0, 50.0, 5.0, 50.0, 5.0)}, "contiguous"),
        ],
    )
    def test_validation_mirrors_the_objects(self, edit, match):
        rows = [edit.get(k, row) for k, row in enumerate(TWO_NODES)]
        with pytest.raises(ValueError, match=match):
            _columns(rows).validated()
        with pytest.raises(ValueError, match=match):
            contacts_from_trajectories(_columns(rows), 10.0)

    def test_tolerances_match_the_objects(self):
        # within the per-object tolerances: 1e-9 s in time, 1e-6 m in space
        rows = list(TWO_NODES)
        rows[1] = (0, 100.0 + 5e-10, 250.0, 100.0 + 5e-7, 0.0, 100.0, 0.0)
        _columns(rows).validated()
        trajectories_from_columns(_columns(rows))

    def test_rejects_malformed_columns(self):
        cols = _columns(TWO_NODES)
        with pytest.raises(ValueError, match="equal length"):
            cols._replace(t1=cols.t1[:-1]).validated()
        with pytest.raises(ValueError, match="integers"):
            cols._replace(node=cols.node.astype(np.float64)).validated()
        with pytest.raises(ValueError, match="no segments"):
            SegmentColumns(*(c[:0] for c in cols)).validated()
