"""The experiment registry: every figure and table of the paper.

Each :class:`Experiment` knows which sweep families it needs and how to
assemble its artefact (a :class:`~repro.analysis.figures.FigureData` or a
rendered table). The benchmark harness and the CLI both drive this
registry, so ``python -m repro run fig13`` and
``pytest benchmarks/test_fig13_delivery_trace.py`` produce the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.analysis.figures import FigureData, build_figure
from repro.analysis.tables import (
    build_table2,
    render_resilience_table,
    render_table1,
    render_table2,
    render_tradeoff_table,
)
from repro.experiments.matrix import MatrixConfig, MatrixStudy, run_matrix_study
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.runner import (
    CUMULATIVE_LABEL,
    DYN_TTL_LABEL,
    EC_LABEL,
    EC_TTL_LABEL,
    IMMUNITY_LABEL,
    PQ_LABEL,
    TTL_LABEL,
    ExperimentRunner,
)
from repro.experiments.tradeoff import TradeoffConfig


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact."""

    exp_id: str
    title: str
    kind: str  #: ``figure`` or ``table``
    description: str
    families: tuple[str, ...]  #: sweep families consumed
    build: Callable[[ExperimentRunner], FigureData | str]


# ------------------------------------------------------------- figure builders


def _fig07(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig07",
        "Delay comparison of epidemic-based protocols (trace)",
        "delay",
        r.sweep("baselines_trace"),
        include=[PQ_LABEL, TTL_LABEL, EC_LABEL],
    )


def _fig08(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig08",
        "Delay comparison of epidemic-based protocols (RWP)",
        "delay",
        r.sweep("baselines_rwp"),
        include=[PQ_LABEL, TTL_LABEL, IMMUNITY_LABEL, EC_LABEL],
    )


def _fig09(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig09",
        "Average bundle duplication rate (trace)",
        "duplication_rate",
        r.sweep("baselines_trace"),
    )


def _fig10(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig10",
        "Average bundle duplication rate (RWP)",
        "duplication_rate",
        r.sweep("baselines_rwp"),
    )


def _fig11(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig11",
        "Buffer occupancy level (trace)",
        "buffer_occupancy",
        r.sweep("baselines_trace"),
    )


def _fig12(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig12",
        "Average buffer occupancy level (RWP)",
        "buffer_occupancy",
        r.sweep("baselines_rwp"),
    )


def _fig13(r: ExperimentRunner) -> FigureData:
    return build_figure(
        "fig13",
        "Delivery ratio of epidemic with TTL and EC (trace)",
        "delivery_ratio",
        r.sweep("baselines_trace"),
        include=[EC_LABEL, TTL_LABEL],
    )


def _fig14(r: ExperimentRunner) -> FigureData:
    s400 = r.sweep("ttl_interval400").series(lambda run: run.delivery_ratio)
    s2000 = r.sweep("ttl_interval2000").series(lambda run: run.delivery_ratio)
    curve400 = next(s for s in s400 if s.label == TTL_LABEL)
    curve2000 = next(s for s in s2000 if s.label == TTL_LABEL)
    curve400.label = "Interval time = 400"
    curve2000.label = "Interval time = 2000"
    return FigureData(
        figure_id="fig14",
        title="Delivery ratio of epidemic with TTL=300 under two interval regimes",
        metric="delivery_ratio",
        series=[curve400, curve2000],
    )


def _enhanced_fig(
    r: ExperimentRunner, exp_id: str, title: str, metric: str, mobility: str
) -> FigureData:
    """Figs 15-20: enhanced vs unmodified protocols.

    The RWP versions of the paper's Figs 15/17/19 additionally plot the
    TTL/dynamic-TTL curves from the two controlled-interval scenarios.
    """
    fig = build_figure(
        exp_id,
        title,
        metric,
        r.sweep(f"enhanced_{mobility}"),
        include=[
            DYN_TTL_LABEL,
            TTL_LABEL,
            EC_LABEL,
            EC_TTL_LABEL,
            IMMUNITY_LABEL,
            CUMULATIVE_LABEL,
        ],
    )
    if mobility == "rwp":
        from repro.analysis.figures import METRIC_ACCESSORS

        accessor = METRIC_ACCESSORS[metric]
        for family, tag in (
            ("ttl_interval400", "interval=400"),
            ("ttl_interval2000", "interval=2000"),
        ):
            for s in r.sweep(family).series(accessor):
                s.label = f"{s.label} ({tag})"
                fig.series.append(s)
    return fig


def _fig15(r: ExperimentRunner) -> FigureData:
    return _enhanced_fig(
        r, "fig15", "Delivery ratio, modified vs unmodified (RWP)", "delivery_ratio", "rwp"
    )


def _fig16(r: ExperimentRunner) -> FigureData:
    return _enhanced_fig(
        r, "fig16", "Delivery ratio, modified vs unmodified (trace)", "delivery_ratio", "trace"
    )


def _fig17(r: ExperimentRunner) -> FigureData:
    return _enhanced_fig(
        r, "fig17", "Buffer occupancy, modified vs unmodified (RWP)", "buffer_occupancy", "rwp"
    )


def _fig18(r: ExperimentRunner) -> FigureData:
    return _enhanced_fig(
        r, "fig18", "Buffer occupancy, modified vs unmodified (trace)", "buffer_occupancy", "trace"
    )


def _fig19(r: ExperimentRunner) -> FigureData:
    return _enhanced_fig(
        r, "fig19", "Duplication rate, modified vs unmodified (RWP)", "duplication_rate", "rwp"
    )


def _fig20(r: ExperimentRunner) -> FigureData:
    return _enhanced_fig(
        r, "fig20", "Duplication rate, modified vs unmodified (trace)", "duplication_rate", "trace"
    )


# -------------------------------------------------------------- table builders


def _table1(_: ExperimentRunner) -> str:
    return render_table1()


def _run_matrix(
    r: ExperimentRunner, config_class: Callable[..., MatrixConfig]
) -> MatrixStudy:
    """A two-axis study at the runner's scale and seed, on its executor."""
    config = config_class(
        loads=tuple(r.scale.loads), replications=r.scale.replications, seed=r.seed
    )
    return run_matrix_study(config, executor=r.executor, progress=r.progress)


def _tradeoff(r: ExperimentRunner) -> str:
    return render_tradeoff_table(_run_matrix(r, TradeoffConfig))


def _resilience(r: ExperimentRunner) -> str:
    return render_resilience_table(_run_matrix(r, ResilienceConfig))


def _table2(r: ExperimentRunner) -> str:
    rows = build_table2(
        r.sweep("enhanced_rwp"),
        r.sweep("enhanced_trace"),
        protocols=[
            TTL_LABEL,
            DYN_TTL_LABEL,
            EC_LABEL,
            EC_TTL_LABEL,
            IMMUNITY_LABEL,
            CUMULATIVE_LABEL,
        ],
    )
    return render_table2(rows)


# ------------------------------------------------------------------- registry

_EXPERIMENTS: dict[str, Experiment] = {}


def _register(exp: Experiment) -> None:
    if exp.exp_id in _EXPERIMENTS:
        raise ValueError(f"duplicate experiment id {exp.exp_id}")
    _EXPERIMENTS[exp.exp_id] = exp


for _exp in [
    Experiment(
        "table1",
        "Table I — prior-study parameter survey",
        "table",
        "Static reproduction of the paper's survey of experiment parameters.",
        (),
        _table1,
    ),
    Experiment(
        "fig07",
        "Fig. 7 — delay vs load, trace",
        "figure",
        "P-Q (P=Q=1), TTL=300 and EC delay curves on the campus trace; "
        "expected shape: EC/P-Q grow with load, TTL above P-Q, P-Q slowest.",
        ("baselines_trace",),
        _fig07,
    ),
    Experiment(
        "fig08",
        "Fig. 8 — delay vs load, RWP",
        "figure",
        "Baseline delay under RWP; immunity fastest, EC/TTL slowest.",
        ("baselines_rwp",),
        _fig08,
    ),
    Experiment(
        "fig09",
        "Fig. 9 — duplication rate vs load, trace",
        "figure",
        "Immunity highest duplication; TTL/EC lowest.",
        ("baselines_trace",),
        _fig09,
    ),
    Experiment(
        "fig10",
        "Fig. 10 — duplication rate vs load, RWP",
        "figure",
        "Same comparison under RWP.",
        ("baselines_rwp",),
        _fig10,
    ),
    Experiment(
        "fig11",
        "Fig. 11 — buffer occupancy vs load, trace",
        "figure",
        "P-Q/EC >75% past load 20; immunity lower; TTL near zero.",
        ("baselines_trace",),
        _fig11,
    ),
    Experiment(
        "fig12",
        "Fig. 12 — buffer occupancy vs load, RWP",
        "figure",
        "Same comparison under RWP.",
        ("baselines_rwp",),
        _fig12,
    ),
    Experiment(
        "fig13",
        "Fig. 13 — delivery ratio of EC vs TTL, trace",
        "figure",
        "Both degrade with load; EC above TTL.",
        ("baselines_trace",),
        _fig13,
    ),
    Experiment(
        "fig14",
        "Fig. 14 — TTL=300 delivery under interval 400 vs 2000",
        "figure",
        "Longer inter-encounter intervals depress constant-TTL delivery.",
        ("ttl_interval400", "ttl_interval2000"),
        _fig14,
    ),
    Experiment(
        "fig15",
        "Fig. 15 — delivery ratio, modified vs unmodified, RWP",
        "figure",
        "Enhancements vs originals under RWP plus interval-scenario TTL curves.",
        ("enhanced_rwp", "ttl_interval400", "ttl_interval2000"),
        _fig15,
    ),
    Experiment(
        "fig16",
        "Fig. 16 — delivery ratio, modified vs unmodified, trace",
        "figure",
        "Dynamic TTL > constant TTL; EC+TTL > EC at high loads; immunity ≈ cumulative.",
        ("enhanced_trace",),
        _fig16,
    ),
    Experiment(
        "fig17",
        "Fig. 17 — buffer occupancy, modified vs unmodified, RWP",
        "figure",
        "EC+TTL below EC; cumulative ≥15% below immunity; dynamic above constant TTL.",
        ("enhanced_rwp", "ttl_interval400", "ttl_interval2000"),
        _fig17,
    ),
    Experiment(
        "fig18",
        "Fig. 18 — buffer occupancy, modified vs unmodified, trace",
        "figure",
        "Same comparison on the campus trace.",
        ("enhanced_trace",),
        _fig18,
    ),
    Experiment(
        "fig19",
        "Fig. 19 — duplication rate, modified vs unmodified, RWP",
        "figure",
        "Enhancements slightly raise duplication except cumulative immunity.",
        ("enhanced_rwp", "ttl_interval400", "ttl_interval2000"),
        _fig19,
    ),
    Experiment(
        "fig20",
        "Fig. 20 — duplication rate, modified vs unmodified, trace",
        "figure",
        "Same comparison on the campus trace.",
        ("enhanced_trace",),
        _fig20,
    ),
    Experiment(
        "table2",
        "Table II — original vs enhanced protocol means",
        "table",
        "Whole-sweep means of delivery/buffer/duplication for 6 protocols × 2 mobility models.",
        ("enhanced_rwp", "enhanced_trace"),
        _table2,
    ),
    Experiment(
        "resilience",
        "Resilience — delivery under node churn × state-loss mode",
        "table",
        "Disruption-tolerance study beyond the paper: sweep the node crash "
        "rate and the reboot state-loss mode (preserve vs wipe buffer and "
        "knowledge) for pure epidemic, anti-packet P-Q and immunity; the "
        "0-churn row is the exact fault-free configuration.",
        (),
        _resilience,
    ),
    Experiment(
        "tradeoff",
        "Tradeoff — occupancy vs delivery under capacity × drop policy",
        "table",
        "Buffer-contention study beyond the paper: sweep relay capacity and "
        "drop policy (reject/drop-tail/drop-oldest/drop-youngest/drop-random) "
        "for pure, TTL=300 and anti-packet P-Q; the reject column at capacity "
        "10 is the paper's exact configuration.",
        (),
        _tradeoff,
    ),
]:
    _register(_exp)

EXPERIMENT_IDS: list[str] = sorted(_EXPERIMENTS)


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment.

    Raises:
        KeyError: with the list of known ids.
    """
    try:
        return _EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENT_IDS)}"
        ) from None


def iter_experiments() -> list[Experiment]:
    """All experiments in id order."""
    return [_EXPERIMENTS[k] for k in EXPERIMENT_IDS]
