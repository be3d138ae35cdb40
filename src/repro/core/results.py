"""Run results and their aggregation into figure-ready series.

A :class:`RunResult` is one simulation run; a :class:`SweepResult` is the
collection over (protocol × load × replication). Aggregation reproduces the
paper's plotting conventions:

* metric curves are means over replications at each load;
* **delay averages only successful runs** (failed runs record no delay);
* Table II's per-protocol numbers are means across the whole load sweep.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executors import CellFailure


@dataclass(frozen=True)
class RunResult:
    """Outcome and metrics of one simulation run."""

    protocol: str  #: registry name, e.g. ``"pq"``
    protocol_label: str  #: human label, e.g. ``"P-Q epidemic (P=1, Q=1)"``
    trace_name: str
    load: int  #: bundles offered
    seed: int
    source: int
    destination: int
    delivered: int
    delivery_ratio: float
    delay: float | None  #: completion time; None for failed runs
    success: bool
    buffer_occupancy: float  #: time-averaged mean fill fraction
    duplication_rate: float  #: time-averaged mean copies/N over bundles
    signaling: dict[str, int]
    transmissions: int
    wasted_slots: int
    removals: dict[str, int]
    end_time: float
    #: highest instantaneous population-wide fill fraction during the run
    #: (may exceed 1.0 when stored immunity tables overflow nominal slots)
    peak_occupancy: float = 0.0
    #: buffer-pressure evictions by drop-policy name (``reject`` never
    #: evicts; EC's intrinsic rule reports under ``max-ec``)
    drops: dict[str, int] = field(default_factory=dict)
    #: disruption-model counters (crashes, missed/dropped contacts,
    #: interrupted/failed transfers, re-infections, downtime) — populated
    #: only by faulted runs (see :mod:`repro.faults`); empty otherwise so
    #: unfaulted results keep their historical serialised form
    churn: dict[str, float] = field(default_factory=dict)
    #: opt-in ``(time, fill fraction)`` occupancy trace — piecewise
    #: constant between entries; None unless the run recorded it
    #: (``SimulationConfig.record_occupancy``; ``--set record_occupancy=true``)
    occupancy_series: tuple[tuple[float, float], ...] | None = None

    @property
    def signaling_overhead(self) -> int:
        """Protocol-specific control units (anti-packets + immunity tables)."""
        return self.signaling.get("anti_packet", 0) + self.signaling.get(
            "immunity_table", 0
        )

    def as_row(self) -> dict[str, object]:
        """Flatten to a CSV-friendly dict."""
        row: dict[str, object] = {
            "protocol": self.protocol,
            "protocol_label": self.protocol_label,
            "trace": self.trace_name,
            "load": self.load,
            "seed": self.seed,
            "source": self.source,
            "destination": self.destination,
            "delivered": self.delivered,
            "delivery_ratio": self.delivery_ratio,
            "delay": "" if self.delay is None else self.delay,
            "success": int(self.success),
            "buffer_occupancy": self.buffer_occupancy,
            "peak_occupancy": self.peak_occupancy,
            "duplication_rate": self.duplication_rate,
            "transmissions": self.transmissions,
            "wasted_slots": self.wasted_slots,
            "signaling_overhead": self.signaling_overhead,
            "end_time": self.end_time,
        }
        for kind, units in self.signaling.items():
            row[f"signal_{kind}"] = units
        for reason, count in self.removals.items():
            row[f"removed_{reason}"] = count
        for policy, count in self.drops.items():
            row[f"drops_{policy}"] = count
        for key, value in self.churn.items():
            row[f"churn_{key}"] = value
        return row

    # ------------------------------------------------- lossless round-trip

    def to_dict(self) -> dict[str, object]:
        """Full-fidelity JSON-safe form (unlike :meth:`as_row`, lossless).

        Every field round-trips exactly through JSON — floats serialise
        via their shortest round-trip repr, so
        ``RunResult.from_dict(json.loads(json.dumps(r.to_dict())))``
        reconstructs a result that compares (and reprs) bit-identical to
        ``r``. This is the checkpoint journal's record format.
        """
        out = dataclasses.asdict(self)
        if self.occupancy_series is not None:
            out["occupancy_series"] = [list(p) for p in self.occupancy_series]
        if not self.churn:
            # unfaulted records keep the historical journal format exactly
            del out["churn"]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> RunResult:
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: on missing or unknown fields.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown RunResult field(s): {', '.join(unknown)}")
        required = names - {"peak_occupancy", "drops", "occupancy_series", "churn"}
        missing = sorted(required - set(data))
        if missing:
            raise ValueError(f"missing RunResult field(s): {', '.join(missing)}")
        kwargs = dict(data)
        series = kwargs.get("occupancy_series")
        if series is not None:
            kwargs["occupancy_series"] = tuple(
                (float(t), float(v)) for t, v in series  # type: ignore[union-attr]
            )
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class SeriesPoint:
    """One (load, mean value) point of a figure curve."""

    load: int
    value: float
    n: int  #: runs aggregated into this point


@dataclass
class Series:
    """One labelled curve: metric values vs load."""

    label: str
    points: list[SeriesPoint] = field(default_factory=list)

    @property
    def loads(self) -> list[int]:
        return [p.load for p in self.points]

    @property
    def values(self) -> list[float]:
        return [p.value for p in self.points]


@dataclass
class SweepResult:
    """All runs of a sweep, with figure/table aggregation helpers."""

    runs: list[RunResult] = field(default_factory=list)
    #: cross-validation gate report (dict form of
    #: :class:`repro.analytic.calibration.CrossValidationReport`), attached
    #: by :meth:`repro.scenarios.spec.ScenarioSpec.run` when the sweep ran
    #: on the surrogate engine with the gate enabled; None otherwise
    surrogate_report: dict[str, object] | None = None
    #: structured records of grid cells that failed under
    #: ``on_error="keep-going"`` (see
    #: :class:`repro.core.executors.CellFailure`); empty for campaigns
    #: that completed cleanly. Aggregation methods operate on ``runs``
    #: only — a load whose runs all failed yields a NaN series point, so
    #: partial grids stay renderable with the gaps visible.
    failures: list["CellFailure"] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.runs)

    def extend(self, more: Iterable[RunResult]) -> None:
        self.runs.extend(more)

    def protocols(self) -> list[str]:
        """Protocol labels present, in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.runs:
            seen.setdefault(r.protocol_label, None)
        return list(seen)

    def loads(self) -> list[int]:
        return sorted({r.load for r in self.runs})

    def filter(
        self, *, protocol_label: str | None = None, load: int | None = None
    ) -> list[RunResult]:
        out = self.runs
        if protocol_label is not None:
            out = [r for r in out if r.protocol_label == protocol_label]
        if load is not None:
            out = [r for r in out if r.load == load]
        return out

    # ------------------------------------------------------------ aggregation

    def series(
        self,
        metric: Callable[[RunResult], float | None],
        *,
        label: str | None = None,
    ) -> list[Series]:
        """One curve per protocol: mean of ``metric`` per load.

        Runs for which the metric is None (e.g. delay of failed runs) are
        excluded from the mean; a load where *no* run has a value yields a
        NaN point so gaps stay visible in plots/CSV.
        """
        out: list[Series] = []
        for proto in self.protocols():
            if label is not None and proto != label:
                continue
            s = Series(label=proto)
            for load in self.loads():
                vals = [
                    v
                    for r in self.filter(protocol_label=proto, load=load)
                    if (v := metric(r)) is not None
                ]
                n = len(vals)
                mean = sum(vals) / n if n else math.nan
                s.points.append(SeriesPoint(load=load, value=mean, n=n))
            out.append(s)
        return out

    def delay_series(self) -> list[Series]:
        """Average delay vs load (successful runs only) — Figs 7–8."""
        return self.series(lambda r: r.delay)

    def delivery_ratio_series(self) -> list[Series]:
        """Average delivery ratio vs load — Figs 13–16."""
        return self.series(lambda r: r.delivery_ratio)

    def buffer_occupancy_series(self) -> list[Series]:
        """Average buffer occupancy level vs load — Figs 11–12, 17–18."""
        return self.series(lambda r: r.buffer_occupancy)

    def duplication_series(self) -> list[Series]:
        """Average bundle duplication rate vs load — Figs 9–10, 19–20."""
        return self.series(lambda r: r.duplication_rate)

    def signaling_series(self) -> list[Series]:
        """Protocol-specific control units vs load (overhead ablation)."""
        return self.series(lambda r: float(r.signaling_overhead))

    def protocol_means(self, protocol_label: str) -> dict[str, float]:
        """Whole-sweep means for one protocol — Table II's row format."""
        runs = self.filter(protocol_label=protocol_label)
        if not runs:
            raise ValueError(f"no runs for protocol {protocol_label!r}")
        delays = [r.delay for r in runs if r.delay is not None]
        return {
            "delivery_ratio": sum(r.delivery_ratio for r in runs) / len(runs),
            "buffer_occupancy": sum(r.buffer_occupancy for r in runs) / len(runs),
            "peak_occupancy": sum(r.peak_occupancy for r in runs) / len(runs),
            "duplication_rate": sum(r.duplication_rate for r in runs) / len(runs),
            "delay": sum(delays) / len(delays) if delays else math.nan,
            "signaling_overhead": sum(r.signaling_overhead for r in runs) / len(runs),
            "drops": sum(sum(r.drops.values()) for r in runs) / len(runs),
            "runs": float(len(runs)),
        }
