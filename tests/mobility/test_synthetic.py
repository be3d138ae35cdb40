"""Synthetic campus trace generator (the CRAWDAD substitute)."""

import pytest

from repro.mobility.stats import compute_trace_stats, per_pair_gaps
from tests.helpers import heavy_tail_index
from repro.mobility.synthetic import CAMPUS_HORIZON_S, CampusTraceConfig, CampusTraceGenerator


@pytest.fixture(scope="module")
def default_trace():
    return CampusTraceGenerator(seed=7).generate()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"horizon": 0.0},
            {"mean_intercontact": 0.0},
            {"min_duration": 0.0},
            {"duration_median": 10.0, "min_duration": 20.0},
            {"max_duration": 50.0, "duration_median": 100.0},
            {"night_activity": 1.5},
            {"pair_activity": 0.0},
            {"pair_activity": 1.5},
            {"day_start": 10 * 3600.0, "day_end": 9 * 3600.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CampusTraceConfig(**kwargs)


class TestGeneration:
    def test_paper_shape(self, default_trace):
        assert default_trace.num_nodes == 12
        assert default_trace.horizon == CAMPUS_HORIZON_S
        assert len(default_trace) > 100

    def test_deterministic(self, default_trace):
        again = CampusTraceGenerator(seed=7).generate()
        assert [(c.start, c.end, c.a, c.b) for c in again] == [
            (c.start, c.end, c.a, c.b) for c in default_trace
        ]

    def test_seeds_differ(self, default_trace):
        other = CampusTraceGenerator(seed=8).generate()
        assert [(c.start, c.a, c.b) for c in other] != [
            (c.start, c.a, c.b) for c in default_trace
        ]

    def test_pair_windows_disjoint(self, default_trace):
        default_trace.validate_disjoint_pairs()

    def test_durations_within_bounds(self, default_trace):
        cfg = CampusTraceConfig()
        for c in default_trace:
            assert cfg.min_duration <= c.duration <= cfg.max_duration + 1e-9

    def test_friendship_graph_connected(self, default_trace):
        """Every node reachable from node 0 via active pairs."""
        adj = {i: set() for i in range(default_trace.num_nodes)}
        for c in default_trace:
            adj[c.a].add(c.b)
            adj[c.b].add(c.a)
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(range(default_trace.num_nodes))

    def test_pair_activity_limits_frequent_pairs(self, default_trace):
        # friend pairs meet regularly; strangers only occasionally
        counts: dict[tuple[int, int], int] = {}
        for c in default_trace:
            counts[c.pair] = counts.get(c.pair, 0) + 1
        frequent = sum(1 for n in counts.values() if n >= 20)
        # 45% of 66 pairs ~ 30; spanning tree guarantees at least 11
        assert 11 <= frequent <= 45

    def test_hard_friendship_cut_limits_pairs(self):
        cfg = CampusTraceConfig(background_activity=0.0)
        trace = CampusTraceGenerator(cfg, seed=7).generate()
        stats = compute_trace_stats(trace)
        assert 11 <= stats.pairs_that_met <= 45

    def test_full_activity_meets_everywhere(self):
        cfg = CampusTraceConfig(pair_activity=1.0, diurnal=False)
        trace = CampusTraceGenerator(cfg, seed=2).generate()
        stats = compute_trace_stats(trace)
        assert stats.pairs_that_met == 66

    def test_heavy_tailed_intercontacts(self):
        cfg = CampusTraceConfig(intercontact_sigma=1.1, diurnal=False)
        trace = CampusTraceGenerator(cfg, seed=5).generate()
        gaps = [g for gs in per_pair_gaps(trace).values() for g in gs]
        assert heavy_tail_index(gaps) > 3.0

    def test_diurnal_thinning_reduces_night_contacts(self):
        base = CampusTraceConfig(diurnal=False)
        thin = CampusTraceConfig(diurnal=True, night_activity=0.05)
        n_base = len(CampusTraceGenerator(base, seed=9).generate())
        n_thin = len(CampusTraceGenerator(thin, seed=9).generate())
        assert n_thin < n_base

    def test_night_contacts_rarer_than_day(self, default_trace):
        cfg = CampusTraceConfig()
        day = night = 0
        day_span = cfg.day_end - cfg.day_start
        night_span = 86_400.0 - day_span
        for c in default_trace:
            tod = (c.start + cfg.day_phase) % 86_400.0
            if cfg.day_start <= tod < cfg.day_end:
                day += 1
            else:
                night += 1
        assert day / day_span > 2 * (night / night_span)

    def test_handout_burst_adds_early_contacts(self):
        cfg = CampusTraceConfig(handout_burst=True)
        trace = CampusTraceGenerator(cfg, seed=7).generate()
        early = [c for c in trace if c.start < cfg.burst_window]
        assert len(early) >= 0.4 * 66  # ~burst_pair_prob of all pairs
        trace.validate_disjoint_pairs()

    def test_describe_reports_model(self):
        gen = CampusTraceGenerator(seed=3)
        d = gen.describe()
        assert d["num_nodes"] == 12
        assert d["seed"] == 3
        assert d["horizon_s"] == CAMPUS_HORIZON_S


class TestStatisticalCalibration:
    """The properties the paper's study depends on (DESIGN.md §4)."""

    def test_node_level_gaps_minutes_scale(self, default_trace):
        stats = compute_trace_stats(default_trace)
        assert 100 < stats.intercontact_node.median < 5_000

    def test_pair_level_gaps_hours_scale(self, default_trace):
        stats = compute_trace_stats(default_trace)
        assert 1_000 < stats.intercontact_pair.median < 50_000

    def test_contacts_carry_about_one_bundle(self, default_trace):
        stats = compute_trace_stats(default_trace)
        assert 50 <= stats.durations.median <= 400

    def test_network_is_sparse(self, default_trace):
        stats = compute_trace_stats(default_trace)
        assert stats.contact_time_fraction < 0.05
