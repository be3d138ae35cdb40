"""Random-Way-Point generators."""

import math

import numpy as np
import pytest

from repro.mobility.contact import Contact
from repro.mobility.rwp import ClassicRWP, ClassicRWPConfig, RWPConfig, SubscriberPointRWP
from repro.mobility.trajectory import SegmentColumns
from repro.scenarios.spec import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from tests.oracles.rwp_trajectory import ReferenceSubscriberPointRWP


@pytest.fixture(scope="module")
def quick_cfg():
    return RWPConfig(num_nodes=6, horizon=40_000.0)


@pytest.fixture(scope="module")
def quick_trace(quick_cfg):
    return SubscriberPointRWP(quick_cfg, seed=3).generate()


class TestRWPConfigValidation:
    def test_defaults_valid(self):
        RWPConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"horizon": 0.0},
            {"num_subscriber_points": 0},
            {"num_subscriber_points": 101},
            {"min_travel_time": 0.0},
            {"max_travel_time": 10.0, "min_travel_time": 20.0},
            {"max_speed": 0.0},
            {"comm_range": 0.0},
            {"num_subscriber_points": 1},
            {"contact_cap": 0.0},
            {"contact_cap": -5.0},
            {"max_hop_distance": -1.0},
            {"max_hop_distance": 0.0},
            {"max_pause": -100.0},
            {"area_side": -1000.0},
            {"area_side": 0.0},
            {"horizon": math.nan},
            {"max_pause": math.nan},
            {"max_hop_distance": math.nan},
            {"engine": "sampled"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RWPConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"contact_cap": None}, {"max_pause": 0.0}, {"num_subscriber_points": 2}]
    )
    def test_accepts_boundary_values(self, kwargs):
        cfg = RWPConfig(num_nodes=3, horizon=5_000.0, **kwargs)
        assert len(SubscriberPointRWP(cfg, seed=1).generate_segments().t0) >= 3


class TestSubscriberPointRWP:
    def test_deterministic_in_seed(self, quick_cfg):
        a = SubscriberPointRWP(quick_cfg, seed=3).generate()
        b = SubscriberPointRWP(quick_cfg, seed=3).generate()
        assert [(c.start, c.end, c.a, c.b) for c in a] == [
            (c.start, c.end, c.a, c.b) for c in b
        ]

    def test_different_seeds_differ(self, quick_cfg, quick_trace):
        other = SubscriberPointRWP(quick_cfg, seed=4).generate()
        assert [(c.start, c.a, c.b) for c in other] != [
            (c.start, c.a, c.b) for c in quick_trace
        ]

    def test_population_and_horizon(self, quick_trace, quick_cfg):
        assert quick_trace.num_nodes == quick_cfg.num_nodes
        assert quick_trace.horizon == quick_cfg.horizon
        assert all(c.end <= quick_cfg.horizon for c in quick_trace)

    def test_contact_cap_respected(self, quick_trace, quick_cfg):
        assert all(c.duration <= quick_cfg.contact_cap + 1e-9 for c in quick_trace)

    def test_produces_contacts(self, quick_trace):
        assert len(quick_trace) > 0

    def test_trajectories_respect_speed_and_area(self, quick_cfg):
        trajs = SubscriberPointRWP(quick_cfg, seed=3).generate_trajectories()
        assert len(trajs) == quick_cfg.num_nodes
        for t in trajs:
            assert t.max_speed() <= quick_cfg.max_speed + 1e-9
            assert t.start_time == 0.0
            assert t.end_time == pytest.approx(quick_cfg.horizon)
            for seg in t.segments:
                for x, y in ((seg.x0, seg.y0), (seg.x1, seg.y1)):
                    assert -1e-6 <= x <= quick_cfg.area_side + 1e-6
                    assert -1e-6 <= y <= quick_cfg.area_side + 1e-6

    def test_pauses_bounded(self, quick_cfg):
        trajs = SubscriberPointRWP(quick_cfg, seed=3).generate_trajectories()
        for t in trajs:
            for seg in t.segments:
                if seg.x0 == seg.x1 and seg.y0 == seg.y1:  # pause
                    assert seg.duration <= quick_cfg.max_pause + 1e-9


class TestClassicRWP:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"horizon": 0.0},
            {"horizon": -1.0},
            {"area_side": 0.0},
            {"comm_range": 0.0},
            {"contact_cap": 0.0},
            {"max_pause": -1.0},
            {"min_speed": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ClassicRWPConfig(**kwargs)

    def test_zero_min_speed_rejected(self):
        with pytest.raises(ValueError, match="min_speed"):
            ClassicRWPConfig(min_speed=0.0)

    def test_speed_order_validated(self):
        with pytest.raises(ValueError):
            ClassicRWPConfig(min_speed=5.0, max_speed=1.0)

    def test_generates_deterministically(self):
        cfg = ClassicRWPConfig(num_nodes=5, horizon=20_000.0)
        a = ClassicRWP(cfg, seed=1).generate()
        b = ClassicRWP(cfg, seed=1).generate()
        assert len(a) == len(b)
        assert a.num_nodes == 5
        assert a.horizon == 20_000.0
        assert all(c.end <= 20_000.0 for c in a)


def segment_bytes(columns: SegmentColumns) -> list[tuple[str, bytes]]:
    """Every column's dtype and raw bytes: equal only when bit for bit equal."""
    return [(str(np.asarray(c).dtype), np.asarray(c).tobytes()) for c in columns]


class TestOracleIdentity:
    """The columnar generator against the per-object reference loop
    (``tests/oracles/rwp_trajectory.py``): same random stream, same
    segments bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("num_nodes", [2, 12, 200])
    @pytest.mark.parametrize(
        "horizon",
        [
            0.5,  # shorter than (almost) every first pause
            3_333.3,  # clips moves mid-travel: interpolated endpoints
            20_000.0,
        ],
    )
    def test_segment_columns_match_oracle(self, seed, num_nodes, horizon):
        cfg = RWPConfig(num_nodes=num_nodes, horizon=horizon)
        got = SubscriberPointRWP(cfg, seed=seed).generate_segments()
        ref = ReferenceSubscriberPointRWP(cfg, seed=seed).generate_trajectories()
        assert segment_bytes(got) == segment_bytes(SegmentColumns.from_trajectories(ref))

    @pytest.mark.parametrize("max_hop_distance", [1.0, 80.0, 150.0])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_isolated_points_fall_back_to_any_point(self, max_hop_distance, seed):
        cfg = RWPConfig(
            num_nodes=12, horizon=20_000.0, max_hop_distance=max_hop_distance
        )
        oracle = ReferenceSubscriberPointRWP(cfg, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5297]))
        lists = oracle._neighbour_lists(oracle._place_points(rng))
        # the fallback branch is exercised: some point reaches every other
        assert any(len(c) == cfg.num_subscriber_points - 1 for c in lists)
        got = SubscriberPointRWP(cfg, seed=seed).generate_segments()
        ref = SegmentColumns.from_trajectories(oracle.generate_trajectories())
        assert segment_bytes(got) == segment_bytes(ref)

    @pytest.mark.parametrize("max_speed", [0.5, 0.8])
    def test_speed_floor_matches_oracle(self, max_speed):
        # a low speed ceiling makes the floor travel >= length / max_speed
        # bind, so each move's length sets its duration
        cfg = RWPConfig(num_nodes=12, horizon=20_000.0, max_speed=max_speed)
        got = SubscriberPointRWP(cfg, seed=6).generate_segments()
        moves = (got.x0 != got.x1) | (got.y0 != got.y1)
        assert np.any(got.t1[moves] - got.t0[moves] > cfg.max_travel_time)
        ref = ReferenceSubscriberPointRWP(cfg, seed=6).generate_trajectories()
        assert segment_bytes(got) == segment_bytes(SegmentColumns.from_trajectories(ref))

    def test_short_horizon_is_one_pause_per_node(self):
        cfg = RWPConfig(num_nodes=12, horizon=0.5)
        got = SubscriberPointRWP(cfg, seed=0).generate_segments()
        assert got.node.tolist() == list(range(12))
        assert got.t1.tolist() == [0.5] * 12
        assert np.array_equal(got.x0, got.x1) and np.array_equal(got.y0, got.y1)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_distance_matrix_matches_scalar_hypot(self, seed):
        # the generator reads each move's length off the matrix that
        # _neighbour_lists builds; the historical loop called np.hypot
        # per move
        gen = SubscriberPointRWP(RWPConfig(), seed=seed)
        points = gen._place_points(np.random.default_rng(seed))
        _, dist = gen._neighbour_lists(points)
        for i in range(len(points)):
            for j in range(len(points)):
                assert dist[j, i] == float(np.hypot(*(points[j] - points[i])))

    @pytest.mark.parametrize("seed", range(10))
    def test_integers_index_draws_the_choice_stream(self, seed):
        # nbrs[rng.integers(len(nbrs))] replaces rng.choice(nbrs); both
        # interleave with 64-bit uniform draws exactly as in the loop
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for size in [1, 2, 3, 7, 50, 95] * 50:
            nbrs = np.arange(size) * 3
            assert a.uniform(0.0, 1000.0) == b.uniform(0.0, 1000.0)
            assert int(a.choice(nbrs)) == nbrs.tolist()[b.integers(size)]
        assert a.bit_generator.state == b.bit_generator.state

    def test_generate_trajectories_wraps_the_columns(self):
        cfg = RWPConfig(num_nodes=12, horizon=20_000.0)
        got = SubscriberPointRWP(cfg, seed=2).generate_trajectories()
        ref = ReferenceSubscriberPointRWP(cfg, seed=2).generate_trajectories()
        assert [t.node for t in got] == [t.node for t in ref]
        for tg, tr in zip(got, ref, strict=True):
            assert [
                (s.t0, s.t1, s.x0, s.y0, s.x1, s.y1) for s in tg.segments
            ] == [(s.t0, s.t1, s.x0, s.y0, s.x1, s.y1) for s in tr.segments]


class TestColdPathBuildsNoContacts:
    def test_generate_leaves_the_contact_list_unbuilt(self):
        trace = SubscriberPointRWP(RWPConfig(num_nodes=20, horizon=8_000.0), seed=4).generate()
        assert len(trace) > 0
        trace.contact_arrays()
        assert "contacts" not in trace.__dict__

    def test_soa_run_never_creates_a_contact(self, monkeypatch):
        def spec(kernel: str) -> ScenarioSpec:
            return ScenarioSpec(
                name="cold",
                mobility=MobilitySpec("rwp", {"num_nodes": 20, "horizon": 6_000.0}),
                protocols=(ProtocolSpec("pure"), ProtocolSpec("ttl", {"ttl": 300.0})),
                workload=WorkloadSpec(loads=(2, 4), replications=2),
                seed=9,
                shared_trace=False,
                kernel=kernel,
            )

        event = [repr(run) for run in spec("event").run().runs]

        def refuse(self):
            raise AssertionError("a Contact was created on the SoA path")

        monkeypatch.setattr(Contact, "__post_init__", refuse)
        soa = [repr(run) for run in spec("soa").run().runs]
        assert soa == event
