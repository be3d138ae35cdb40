"""Contact statistics."""

import math

import pytest

from repro.mobility.contact import ContactTrace
from repro.mobility.stats import (
    SeriesSummary,
    compute_trace_stats,
    per_node_gaps,
    per_pair_gaps,
)
from tests.helpers import heavy_tail_index


@pytest.fixture
def tiny_trace():
    # pair (0,1): contacts [0,10) and [30,40); pair (1,2): [50,60)
    return ContactTrace.from_tuples(
        [(0.0, 10.0, 0, 1), (30.0, 40.0, 0, 1), (50.0, 60.0, 1, 2)],
        3,
        horizon=100.0,
    )


class TestSeriesSummary:
    def test_of_values(self):
        s = SeriesSummary.of([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_of_empty_is_nan(self):
        s = SeriesSummary.of([])
        assert s.count == 0
        assert math.isnan(s.mean) and math.isnan(s.median)


class TestGapExtraction:
    def test_per_pair_gaps(self, tiny_trace):
        gaps = per_pair_gaps(tiny_trace)
        assert gaps[(0, 1)] == [20.0]  # 30 - 10
        assert gaps[(1, 2)] == []

    def test_per_node_gaps(self, tiny_trace):
        gaps = per_node_gaps(tiny_trace)
        assert gaps[0] == [30.0]  # starts at 0 and 30
        assert gaps[1] == [30.0, 20.0]  # starts 0, 30, 50
        assert gaps[2] == []


class TestTraceStats:
    def test_exact_values(self, tiny_trace):
        st = compute_trace_stats(tiny_trace)
        assert st.num_nodes == 3
        assert st.num_contacts == 3
        assert st.horizon == 100.0
        assert st.durations.mean == 10.0
        assert st.pairs_that_met == 2
        assert st.pair_coverage == pytest.approx(2 / 3)
        assert st.contact_time_fraction == pytest.approx(30.0 / (100.0 * 3))
        assert st.encounters_per_node.mean == pytest.approx(2.0)

    def test_as_dict_flattens(self, tiny_trace):
        d = compute_trace_stats(tiny_trace).as_dict()
        assert d["num_contacts"] == 3
        assert "duration_mean" in d
        assert "intercontact_pair_median" in d
        assert "encounters_per_node_p90" in d


class TestHeavyTailIndex:
    def test_uniform_sample_is_light(self):
        vals = [float(v) for v in range(1, 101)]
        assert heavy_tail_index(vals) < 2.0

    def test_heavy_sample_is_heavy(self):
        vals = [1.0] * 90 + [1000.0] * 10
        assert heavy_tail_index(vals) > 100.0

    def test_empty_is_nan(self):
        assert math.isnan(heavy_tail_index([]))

    def test_zero_median_is_inf(self):
        assert heavy_tail_index([0.0, 0.0, 5.0]) == math.inf
