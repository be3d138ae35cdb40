"""Figure assembly: map a sweep result to one of the paper's figures.

A figure is a metric plus a curve set. :func:`build_figure` extracts the
right series from a :class:`~repro.core.results.SweepResult` and labels
them as the paper's legends do, producing a :class:`FigureData` that the
ASCII plotter, CSV writer and benchmark harness all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.core.results import RunResult, Series, SweepResult

#: metric name -> RunResult accessor (None values are dropped from means)
METRIC_ACCESSORS: dict[str, Callable[[RunResult], float | None]] = {
    "delay": lambda r: r.delay,
    "delivery_ratio": lambda r: r.delivery_ratio,
    "buffer_occupancy": lambda r: r.buffer_occupancy,
    "peak_occupancy": lambda r: r.peak_occupancy,
    "duplication_rate": lambda r: r.duplication_rate,
    "signaling_overhead": lambda r: float(r.signaling_overhead),
}

#: metric name -> axis label used by plots (mirrors the paper's y-axes)
METRIC_AXIS_LABELS: dict[str, str] = {
    "delay": "Average delay (s)",
    "delivery_ratio": "Average delivery ratio",
    "buffer_occupancy": "Average buffer occupancy level",
    "peak_occupancy": "Peak buffer occupancy level",
    "duplication_rate": "Average bundle duplication rate",
    "signaling_overhead": "Control units transmitted",
}


@dataclass
class FigureData:
    """One reproduced figure: labelled curves of a metric vs load."""

    figure_id: str  #: e.g. ``"fig13"``
    title: str
    metric: str
    series: list[Series] = field(default_factory=list)

    @property
    def y_label(self) -> str:
        return METRIC_AXIS_LABELS[self.metric]

    def series_by_label(self, label: str) -> Series:
        """Find a curve by its legend label.

        Raises:
            KeyError: if no curve has that label.
        """
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"no series {label!r} in {self.figure_id}; have {[s.label for s in self.series]}"
        )


def build_figure(
    figure_id: str,
    title: str,
    metric: str,
    sweep: SweepResult,
    *,
    include: list[str] | None = None,
    relabel: dict[str, str] | None = None,
) -> FigureData:
    """Assemble a figure from a sweep result.

    Args:
        metric: One of :data:`METRIC_ACCESSORS`.
        include: Optional protocol-label filter (and ordering) — the
            paper's figures often plot a subset of the protocols swept.
        relabel: Optional label renames (e.g. shorten legends).

    Raises:
        KeyError: for an unknown metric or an ``include`` label absent
            from the sweep.
    """
    if metric not in METRIC_ACCESSORS:
        raise KeyError(
            f"unknown metric {metric!r}; available: {sorted(METRIC_ACCESSORS)}"
        )
    all_series = {
        s.label: s for s in sweep.series(METRIC_ACCESSORS[metric])
    }
    if include is None:
        chosen = list(all_series.values())
    else:
        missing = [lbl for lbl in include if lbl not in all_series]
        if missing:
            raise KeyError(
                f"series {missing} not in sweep; have {sorted(all_series)}"
            )
        chosen = [all_series[lbl] for lbl in include]
    if relabel:
        chosen = [
            Series(label=relabel.get(s.label, s.label), points=s.points)
            for s in chosen
        ]
    return FigureData(figure_id=figure_id, title=title, metric=metric, series=chosen)
