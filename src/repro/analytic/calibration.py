"""Cross-validation gate between the event simulator and the surrogate.

Before an ``engine="ode"`` scenario extrapolates to populations the event
simulator cannot touch, the gate re-runs a small reference grid on *both*
engines and compares the per-(protocol, load) series means of the headline
metrics — delivery ratio, delay, and duplication (copies/N). If the
surrogate disagrees with the simulator beyond the scenario's tolerance,
the run is refused with :class:`SurrogateAccuracyError`: an extrapolation
is only as trustworthy as its anchored error, and a silent wrong answer at
10^6 nodes is worse than no answer.

The reference grid defaults to the scenario's own mobility at its two
smallest loads with at least :data:`MIN_REPLICATIONS` replications.
Scenarios whose mobility is itself analytic (no contacts to simulate)
must pin a DES-able ``surrogate_reference`` mobility instead.

The gate is a *statistical* test. Per-run DES metrics are dominated by
the destination's infection rank — uniform on {1..N−1} — so duplication
and delay carry relative standard deviations above 50%: a 24-run
reference grid cannot certify (or refute) surrogate accuracy tighter
than its own ≈2·SEM sampling noise. The gate therefore compares means
*pooled* over the whole grid per protocol, and only refuses the run when
the disagreement exceeds both the tolerance and the DES noise floor;
both numbers appear in the report, so a pass at high noise is visibly a
weak pass. Per-(protocol, load) cell residuals are still reported for
inspection, but they do not decide the gate.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.core.executors import CellFailure
from repro.core.results import RunResult, Series, SweepResult
from repro.mobility.contact import ContactTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec

#: Metrics the gate compares (ISSUE wording: delivery ratio, delay, copies).
GATE_METRICS: tuple[str, ...] = ("delivery_ratio", "delay", "duplication_rate")

#: Replication floor for the DES side of the comparison.
MIN_REPLICATIONS = 12

_SERIES: dict[str, Callable[[SweepResult], list[Series]]] = {
    "delivery_ratio": lambda r: r.delivery_ratio_series(),
    "delay": lambda r: r.delay_series(),
    "duplication_rate": lambda r: r.duplication_series(),
}

_RUN_VALUES: dict[str, Callable[[RunResult], float | None]] = {
    "delivery_ratio": lambda r: r.delivery_ratio,
    "delay": lambda r: r.delay,
    "duplication_rate": lambda r: r.duplication_rate,
}


class SurrogateAccuracyError(ValueError):
    """The surrogate missed the event simulator beyond the tolerance."""


class IncompleteReferenceGridError(RuntimeError):
    """Cells of the gate's reference grid failed, so it cannot be judged.

    A scenario with ``on_error="keep-going"`` lets failed cells drop out
    of a sweep; pooling what is left would compare the engines on
    different grids. The gate refuses instead.

    Attributes:
        engine: The pass that failed, ``"des"`` or ``"ode"``.
        failures: One :class:`~repro.core.executors.CellFailure` per failed
            cell, with its ``(protocol, load, rep)`` coordinates.
    """

    def __init__(self, engine: str, failures: Sequence[CellFailure]) -> None:
        cells = "; ".join(
            f"{f.coordinates} [{f.kind}] {f.message}" for f in failures
        )
        super().__init__(
            f"cross-validation reference grid incomplete: {len(failures)} "
            f"{engine} cell(s) failed: {cells}"
        )
        self.engine = engine
        self.failures = tuple(failures)


@dataclass(frozen=True)
class CellResidual:
    """Surrogate-vs-DES disagreement of one (protocol, load, metric) cell."""

    protocol: str  #: protocol label
    load: int
    metric: str
    des: float | None  #: DES series mean; None when no run had a value
    surrogate: float | None
    #: |surrogate − des| / max(|des|, ε); ``inf`` when exactly one side
    #: has no value (e.g. the DES never succeeded but the surrogate did);
    #: None when neither has one (nothing to compare)
    rel_error: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "load": self.load,
            "metric": self.metric,
            "des": self.des,
            "surrogate": self.surrogate,
            "rel_error": self.rel_error,
        }


@dataclass(frozen=True)
class PooledResidual:
    """Surrogate-vs-DES disagreement of one protocol's whole-grid mean.

    These are what the gate decides on: pooling every (load, replication)
    run of a protocol divides the DES rank noise by √(grid size), where a
    single cell would drown a 10% tolerance in its own sampling error.
    """

    protocol: str  #: protocol label
    metric: str
    des: float | None  #: DES whole-grid mean; None when no run had a value
    surrogate: float | None
    #: |surrogate − des| / max(|des|, ε); ``inf`` when exactly one side
    #: has no value; None when neither has one
    rel_error: float | None
    #: 2·SEM of the DES mean, relative to it — the resolution limit of
    #: this grid; None when fewer than two DES runs carried a value
    noise_floor: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "metric": self.metric,
            "des": self.des,
            "surrogate": self.surrogate,
            "rel_error": self.rel_error,
            "noise_floor": self.noise_floor,
        }


@dataclass
class CrossValidationReport:
    """Pooled per-protocol residuals (which decide the gate) plus
    per-(protocol, load) cell residuals (for inspection)."""

    residuals: list[CellResidual]
    pooled: list[PooledResidual]
    loads: tuple[int, ...]
    replications: int
    reference: dict[str, Any]  #: the reference MobilitySpec, dict form

    def metric_errors(self) -> dict[str, dict[str, float]]:
        """``{metric: {"mean": ..., "max": ..., "noise_floor": ...}}``
        over the pooled per-protocol residuals."""
        out: dict[str, dict[str, float]] = {}
        for metric in GATE_METRICS:
            rows = [r for r in self.pooled if r.metric == metric]
            errs = [r.rel_error for r in rows if r.rel_error is not None]
            floors = [r.noise_floor for r in rows if r.noise_floor is not None]
            out[metric] = {
                "mean": sum(errs) / len(errs) if errs else math.nan,
                "max": max(errs) if errs else math.nan,
                "noise_floor": max(floors) if floors else math.nan,
            }
        return out

    def ensure(self, tolerance: float) -> None:
        """Refuse the scenario if any pooled residual is out of tolerance.

        A residual fails when its error exceeds **both** the tolerance and
        its DES noise floor: a disagreement the reference grid cannot
        statistically resolve is reported, not fatal — and a genuinely
        resolved one within tolerance is fine by definition.

        Raises:
            SurrogateAccuracyError: with the summary table in the message.
        """
        bad = [
            r
            for r in self.pooled
            if r.rel_error is not None
            and not math.isnan(r.rel_error)
            and r.rel_error > tolerance
            and r.rel_error > (r.noise_floor or 0.0)
        ]
        if bad:
            worst = ", ".join(
                f"{r.protocol}/{r.metric}: {r.rel_error:.1%}"
                for r in sorted(bad, key=lambda r: -(r.rel_error or 0.0))
            )
            raise SurrogateAccuracyError(
                f"surrogate disagrees with the event simulator beyond "
                f"{tolerance:.0%} ({worst}); refusing to extrapolate.\n"
                + self.summary()
            )

    def summary(self) -> str:
        """Human-readable pooled-residual table of the gate outcome."""

        def fmt(value: float | None, spec: str = ".4g") -> str:
            return "—" if value is None else format(value, spec)

        lines = [
            "surrogate cross-validation "
            f"(loads={list(self.loads)}, replications={self.replications})",
            f"  {'protocol':<26} {'metric':<18} {'des':>9} {'ode':>9}"
            f" {'err':>8} {'2·SEM':>8}",
        ]
        for r in self.pooled:
            lines.append(
                f"  {r.protocol:<26} {r.metric:<18} {fmt(r.des):>9}"
                f" {fmt(r.surrogate):>9} {fmt(r.rel_error, '.2%'):>8}"
                f" {fmt(r.noise_floor, '.2%'):>8}"
            )
        lines.append(
            "  (a residual fails the gate only when err exceeds both the "
            "tolerance and the 2·SEM DES noise floor)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        def clean(value: float) -> float | None:
            return None if math.isnan(value) else value

        return {
            "loads": list(self.loads),
            "replications": self.replications,
            "reference": self.reference,
            "metrics": {
                metric: {key: clean(v) for key, v in agg.items()}
                for metric, agg in self.metric_errors().items()
            },
            "pooled": [r.to_dict() for r in self.pooled],
            "residuals": [r.to_dict() for r in self.residuals],
        }


def _clean(value: float) -> float | None:
    return None if math.isnan(value) else value


def _relative_error(des: float | None, surrogate: float | None) -> float | None:
    if des is None and surrogate is None:
        return None
    if des is None or surrogate is None:
        return math.inf
    return abs(surrogate - des) / max(abs(des), 1e-9)


def compare_sweeps(
    des: SweepResult,
    surrogate: SweepResult,
    *,
    metrics: Sequence[str] = GATE_METRICS,
) -> list[CellResidual]:
    """Per-(protocol, load, metric) residuals between two sweep results."""
    residuals: list[CellResidual] = []
    for metric in metrics:
        series_of = _SERIES[metric]
        surrogate_series = {s.label: s for s in series_of(surrogate)}
        for ds in series_of(des):
            ss = surrogate_series.get(ds.label)
            for i, load in enumerate(ds.loads):
                dval = _clean(ds.values[i])
                sval = None
                if ss is not None and i < len(ss.values):
                    sval = _clean(ss.values[i])
                residuals.append(
                    CellResidual(
                        protocol=ds.label,
                        load=load,
                        metric=metric,
                        des=dval,
                        surrogate=sval,
                        rel_error=_relative_error(dval, sval),
                    )
                )
    return residuals


def pool_sweeps(
    des: SweepResult,
    surrogate: SweepResult,
    *,
    metrics: Sequence[str] = GATE_METRICS,
) -> list[PooledResidual]:
    """Per-(protocol, metric) residuals of the whole-grid means.

    Pools every (load, replication) run of a protocol on each side, and
    attaches the DES side's 2·SEM noise floor so the comparison knows its
    own resolution. Runs without a value (delay of failed runs) are
    excluded from both the mean and the floor, mirroring
    :meth:`~repro.core.results.SweepResult.series`.
    """
    pooled: list[PooledResidual] = []
    for proto in des.protocols():
        des_runs = des.filter(protocol_label=proto)
        sur_runs = surrogate.filter(protocol_label=proto)
        for metric in metrics:
            value_of = _RUN_VALUES[metric]
            dvals = [v for r in des_runs if (v := value_of(r)) is not None]
            svals = [v for r in sur_runs if (v := value_of(r)) is not None]
            dmean = sum(dvals) / len(dvals) if dvals else None
            smean = sum(svals) / len(svals) if svals else None
            noise = None
            if dmean is not None and len(dvals) > 1:
                var = sum((v - dmean) ** 2 for v in dvals) / (len(dvals) - 1)
                noise = 2.0 * math.sqrt(var / len(dvals)) / max(abs(dmean), 1e-9)
            pooled.append(
                PooledResidual(
                    protocol=proto,
                    metric=metric,
                    des=dmean,
                    surrogate=smean,
                    rel_error=_relative_error(dmean, smean),
                    noise_floor=noise,
                )
            )
    return pooled


def _run_reference_grid(
    grid: ScenarioSpec,
    traces: Callable[[int], ContactTrace],
    progress: Callable[[str], None] | None,
) -> SweepResult:
    """One engine's pass over the reference grid, on the shared traces.

    Raises:
        IncompleteReferenceGridError: when any cell failed — possible under
            the scenario's ``on_error="keep-going"``.
    """
    from repro.core.sweep import run_sweep

    result = run_sweep(
        traces,
        grid.build_protocols(),
        grid.sweep_config(),
        progress=progress,
        policy=grid.failure_policy(),
    )
    if result.failures:
        raise IncompleteReferenceGridError(grid.engine, result.failures)
    return result


def cross_validate_scenario(
    spec: ScenarioSpec,
    *,
    loads: Sequence[int] | None = None,
    replications: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> CrossValidationReport:
    """Run the reference grid on both engines and report the residuals.

    Args:
        spec: The scenario asking to run on the surrogate. Its
            ``surrogate_reference`` mobility — or, when unset, its own
            mobility — anchors the DES side.
        loads: Gate loads; defaults to the two smallest of the scenario.
        replications: DES replications; defaults to the scenario's, with
            a floor of :data:`MIN_REPLICATIONS`.
        progress: Forwarded to both sweep runs.

    Raises:
        ValueError: when no DES-able reference mobility is available.
        IncompleteReferenceGridError: when a reference cell failed on
            either engine.
    """
    from repro.scenarios.spec import WorkloadSpec

    reference = spec.surrogate_reference or spec.mobility
    gate_loads = (
        tuple(int(x) for x in loads)
        if loads
        else tuple(sorted(spec.workload.loads)[:2])
    )
    reps = (
        int(replications)
        if replications is not None
        else max(spec.workload.replications, MIN_REPLICATIONS)
    )
    base = dataclasses.replace(
        spec,
        mobility=reference,
        workload=WorkloadSpec(loads=gate_loads, replications=reps),
        engine="des",
        surrogate_check=False,
        record_occupancy=False,
    )
    # Each reference trace is built once: the emptiness probe and both
    # engines' passes share it.
    reference_trace = functools.cache(base.build_trace)
    if len(reference_trace(0)) == 0:
        raise ValueError(
            "cross-validation needs a contact-bearing reference mobility; "
            "the scenario's mobility has no contacts to simulate — pin a "
            "DES-able 'surrogate_reference' on the scenario"
        )
    if progress is not None:
        progress(f"cross-validation: DES reference grid {list(gate_loads)} × {reps}")
    des_result = _run_reference_grid(base, reference_trace, progress)
    if progress is not None:
        progress("cross-validation: surrogate on the same grid")
    ode_result = _run_reference_grid(
        dataclasses.replace(base, engine="ode"), reference_trace, progress
    )
    return CrossValidationReport(
        residuals=compare_sweeps(des_result, ode_result),
        pooled=pool_sweeps(des_result, ode_result),
        loads=gate_loads,
        replications=reps,
        reference=reference.to_dict(),
    )
