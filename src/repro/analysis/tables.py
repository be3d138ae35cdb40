"""The paper's tables, plus the buffer-contention tradeoff table.

* **Table I** — the survey of experiment parameters used by prior epidemic
  routing studies (static data, reproduced for completeness and used as
  the bound-check reference for our own configurations).
* **Table II** — per-protocol whole-sweep means of delivery rate, buffer
  occupancy level and duplication rate, for both mobility models.
* **Resilience table** — churn-rate × state-loss grid of delivery ratio
  and re-infection counts per protocol (the disruption-tolerance study;
  see :mod:`repro.experiments.resilience`).
* **Tradeoff table** — capacity × drop-policy grid of delivery ratio,
  mean/peak occupancy and drop counts per protocol (the
  occupancy/delivery tradeoff study; see
  :mod:`repro.experiments.tradeoff`).

Both study tables share one matrix layout over a
:class:`~repro.experiments.matrix.MatrixStudy`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.results import SweepResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.matrix import MatrixStudy

#: Table I of the paper: parameters used in studies [10]-[13].
TABLE1_ROWS: list[tuple[str, str]] = [
    ("Number of Nodes", "<= 100"),
    ("Mobility Pattern", "Random Waypoint"),
    ("Network Area", "<= 50 km^2"),
    ("Transmission Range", "<= 300 m"),
    ("Metrics", "Delivery ratio, average delay, time to deliver all bundles"),
    ("Buffer Size", "Infinite or up to 5 MB"),
    ("Bundle Size", "<= 14 MB"),
]


def render_table1() -> str:
    """Table I as aligned text."""
    key_w = max(len(k) for k, _ in TABLE1_ROWS)
    lines = ["Table I — experiment parameters used in prior studies [10]-[13]"]
    lines.append("-" * 72)
    for k, v in TABLE1_ROWS:
        lines.append(f"{k:<{key_w}}  {v}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Table2Row:
    """One protocol's whole-sweep means under both mobility models."""

    protocol_label: str
    delivery_rwp: float
    delivery_trace: float
    buffer_rwp: float
    buffer_trace: float
    duplication_rwp: float
    duplication_trace: float

    def as_dict(self) -> dict[str, object]:
        return {
            "protocol": self.protocol_label,
            "delivery_rwp_pct": 100 * self.delivery_rwp,
            "delivery_trace_pct": 100 * self.delivery_trace,
            "buffer_rwp_pct": 100 * self.buffer_rwp,
            "buffer_trace_pct": 100 * self.buffer_trace,
            "duplication_rwp_pct": 100 * self.duplication_rwp,
            "duplication_trace_pct": 100 * self.duplication_trace,
        }


def build_table2(
    rwp_sweep: SweepResult,
    trace_sweep: SweepResult,
    *,
    protocols: list[str] | None = None,
) -> list[Table2Row]:
    """Compute Table II from the two mobility studies.

    Args:
        protocols: Protocol labels (row order); defaults to the labels
            present in the RWP sweep.

    Raises:
        ValueError: if a requested protocol is missing from either sweep.
    """
    labels = protocols if protocols is not None else rwp_sweep.protocols()
    rows: list[Table2Row] = []
    for label in labels:
        m_rwp = rwp_sweep.protocol_means(label)
        m_trace = trace_sweep.protocol_means(label)
        rows.append(
            Table2Row(
                protocol_label=label,
                delivery_rwp=m_rwp["delivery_ratio"],
                delivery_trace=m_trace["delivery_ratio"],
                buffer_rwp=m_rwp["buffer_occupancy"],
                buffer_trace=m_trace["buffer_occupancy"],
                duplication_rwp=m_rwp["duplication_rate"],
                duplication_trace=m_trace["duplication_rate"],
            )
        )
    return rows


def _render_matrix(
    study: MatrixStudy,
    title: str,
    row_header: str,
    cell_text: Callable[[SweepResult, str], str],
) -> str:
    """A two-axis study as aligned text, one block per protocol.

    Each block is a row × column matrix of ``cell_text(sweep, protocol
    label)``; protocols appear in their order of first appearance over
    the grid (rows, then columns).
    """
    rows, columns = study.rows, study.columns
    texts: dict[tuple[str, str, str], str] = {}
    for row in rows:
        for column in columns:
            sweep = study.sweep(row, column)
            for label in sweep.protocols():
                texts[(row, column, label)] = cell_text(sweep, label)
    if not texts:
        raise ValueError("no rows to render")
    row_w = max(len(row_header), max(len(row) for row in rows))
    col_w = max(max(len(c) for c in columns), max(len(t) for t in texts.values()))
    header = f"{row_header:<{row_w}} | " + " | ".join(f"{c:>{col_w}}" for c in columns)
    lines = [title]
    for proto in dict.fromkeys(label for _, _, label in texts):
        lines += ["", f"Protocol: {proto}", header, "-" * len(header)]
        for row in rows:
            cells = [f"{texts[(row, c, proto)]:>{col_w}}" for c in columns]
            lines.append(f"{row:<{row_w}} | " + " | ".join(cells))
    return "\n".join(lines)


def render_tradeoff_table(study: MatrixStudy) -> str:
    """The tradeoff study as aligned text, one block per protocol.

    Each block is a capacity × policy matrix of
    ``delivery% / occupancy% / peak%`` triples (drops appended when any
    occurred), so the occupancy cost of each delivery gain reads across
    one row.
    """

    def cell_text(sweep: SweepResult, label: str) -> str:
        means = sweep.protocol_means(label)
        text = (
            f"{100 * means['delivery_ratio']:.1f}/"
            f"{100 * means['buffer_occupancy']:.1f}/"
            f"{100 * means['peak_occupancy']:.1f}"
        )
        if means["drops"]:
            text += f" d={means['drops']:.1f}"
        return text

    return _render_matrix(
        study,
        "Tradeoff Table — occupancy vs delivery under capacity x drop policy "
        "(delivery% / occupancy% / peak%, sweep means)",
        "capacity",
        cell_text,
    )


def render_resilience_table(study: MatrixStudy) -> str:
    """The resilience study as aligned text, one block per protocol.

    Each block is a churn-rate × state-loss matrix of ``delivery%``
    cells (mean post-wipe re-infections appended when any occurred), so
    the cost of losing state on reboot reads across one row.
    """

    def cell_text(sweep: SweepResult, label: str) -> str:
        text = f"{100 * sweep.protocol_means(label)['delivery_ratio']:.1f}"
        runs = sweep.filter(protocol_label=label)
        reinfections = sum(r.churn.get("reinfections", 0.0) for r in runs) / len(runs)
        if reinfections:
            text += f" r={reinfections:.1f}"
        return text

    return _render_matrix(
        study,
        "Resilience Table — delivery under churn rate x state-loss mode "
        "(delivery%, sweep means; r= mean re-infections after wipe)",
        "churn rate",
        cell_text,
    )


def render_table2(rows: list[Table2Row]) -> str:
    """Table II as aligned text (percentages, like the paper)."""
    if not rows:
        raise ValueError("no rows to render")
    label_w = max(len(r.protocol_label) for r in rows)
    header = (
        f"{'Protocol':<{label_w}} | {'Delivery %':>19} | {'Buffer %':>19} | "
        f"{'Duplication %':>19}"
    )
    sub = (
        f"{'':<{label_w}} | {'RWP':>9} {'Trace':>9} | {'RWP':>9} {'Trace':>9} | "
        f"{'RWP':>9} {'Trace':>9}"
    )
    lines = [
        "Table II — comparison of original and enhanced protocols (sweep means)",
        header,
        sub,
        "-" * len(header),
    ]
    for r in rows:
        lines.append(
            f"{r.protocol_label:<{label_w}} | "
            f"{100 * r.delivery_rwp:>9.1f} {100 * r.delivery_trace:>9.1f} | "
            f"{100 * r.buffer_rwp:>9.1f} {100 * r.buffer_trace:>9.1f} | "
            f"{100 * r.duplication_rwp:>9.1f} {100 * r.duplication_trace:>9.1f}"
        )
    return "\n".join(lines)
