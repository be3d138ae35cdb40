"""Figure assembly."""

import pytest

from repro.analysis.figures import METRIC_ACCESSORS, build_figure
from tests.core.test_results import _run
from repro.core.results import SweepResult


@pytest.fixture
def sweep():
    s = SweepResult()
    s.runs = [
        _run("alpha", 5, delay=100.0),
        _run("alpha", 10, delay=200.0),
        _run("beta", 5, delay=50.0),
        _run("beta", 10, delay=70.0),
    ]
    return s


class TestBuildFigure:
    def test_all_series_by_default(self, sweep):
        fig = build_figure("f", "t", "delay", sweep)
        assert [s.label for s in fig.series] == ["alpha", "beta"]
        assert fig.metric == "delay"
        assert fig.y_label == "Average delay (s)"

    def test_include_filters_and_orders(self, sweep):
        fig = build_figure("f", "t", "delay", sweep, include=["beta", "alpha"])
        assert [s.label for s in fig.series] == ["beta", "alpha"]

    def test_include_missing_label_raises(self, sweep):
        with pytest.raises(KeyError, match="not in sweep"):
            build_figure("f", "t", "delay", sweep, include=["gamma"])

    def test_unknown_metric_raises(self, sweep):
        with pytest.raises(KeyError, match="metric"):
            build_figure("f", "t", "latency", sweep)

    def test_relabel(self, sweep):
        fig = build_figure("f", "t", "delay", sweep, relabel={"alpha": "A"})
        assert [s.label for s in fig.series] == ["A", "beta"]

    def test_every_metric_has_axis_label(self, sweep):
        for metric in METRIC_ACCESSORS:
            fig = build_figure("f", "t", metric, sweep)
            assert fig.y_label

    def test_series_by_label(self, sweep):
        fig = build_figure("f", "t", "delay", sweep)
        assert fig.series_by_label("alpha").values == [100.0, 200.0]
        with pytest.raises(KeyError):
            fig.series_by_label("nope")
