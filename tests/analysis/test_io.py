"""CSV/JSON exports."""

import csv
import json
import math

import pytest

from repro.analysis.io import (
    read_series_csv,
    write_runs_csv,
    write_series_csv,
    write_series_json,
)
from repro.core.results import Series, SeriesPoint, SweepResult
from tests.core.test_results import _run


def _series():
    return [
        Series("a", [SeriesPoint(5, 0.5, 3), SeriesPoint(10, math.nan, 0)]),
        Series("b", [SeriesPoint(5, 1.25, 3)]),
    ]


class TestRunsCsv:
    def test_one_row_per_run(self, tmp_path):
        sweep = SweepResult()
        sweep.runs = [_run("a", 5), _run("b", 10, delay=None, success=False)]
        path = tmp_path / "runs.csv"
        write_runs_csv(sweep, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["protocol"] == "a"
        assert rows[1]["delay"] == ""
        assert "signal_summary_vector" in rows[0]

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_runs_csv(SweepResult(), tmp_path / "x.csv")


class TestSeriesCsvRoundTrip:
    def test_round_trip_preserves_values_and_nan(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(_series(), path)
        back = read_series_csv(path)
        assert [s.label for s in back] == ["a", "b"]
        a = back[0]
        assert a.points[0].value == 0.5
        assert math.isnan(a.points[1].value)
        assert a.points[0].n == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("series,load,value,n\na,notanumber,1.0,1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_series_csv(path)

    def test_wrong_cell_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("series,load,value,n\na,5\n")
        with pytest.raises(ValueError, match="4 cells"):
            read_series_csv(path)


class TestSeriesJson:
    def test_document_shape(self, tmp_path):
        path = tmp_path / "series.json"
        write_series_json(_series(), path, meta={"figure": "fig09"})
        doc = json.loads(path.read_text())
        assert doc["meta"]["figure"] == "fig09"
        assert doc["series"][0]["label"] == "a"
        assert doc["series"][0]["points"][1]["value"] is None  # NaN -> null
