"""Two-axis studies: one simulation setting per (row, column) of a grid.

The tradeoff study (:mod:`~repro.experiments.tradeoff`, relay capacity ×
drop policy) and the resilience study
(:mod:`~repro.experiments.resilience`, churn rate × state-loss mode) are
one algorithm over different axes. Each config says what it alone knows —
its two axes, the :class:`~repro.core.simulation.SimulationConfig` of one
(row, column) setting, its row labels and its progress text — and
:func:`run_matrix_study` runs the grid

    row × column × protocol × load × replication

The mobility input is built once and shared by every cell (the paper's
shared-trace convention), and every setting's cells go to the executor as
one flat list, so a :class:`~repro.core.executors.ParallelExecutor` fans
the whole study out at once. A cell's randomness derives from
(seed, protocol, load, rep) alone, so a (protocol, load, rep) cell sees
the same workload in every setting.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.executors import Cell, Executor, SerialExecutor
from repro.core.results import SweepResult
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, build_cells
from repro.scenarios import MobilitySpec, ProtocolSpec


class MatrixConfig:
    """What a two-axis study's config supplies; subclasses are frozen
    dataclasses that declare the five shared fields below."""

    protocols: tuple[ProtocolSpec, ...]
    mobility: MobilitySpec
    loads: tuple[int, ...]
    replications: int
    seed: int

    def axes(self) -> tuple[Sequence[Any], Sequence[str]]:
        """The row axis values and the column labels."""
        raise NotImplementedError

    def row_label(self, row: Any) -> str:
        """The label of one row axis value."""
        raise NotImplementedError

    def setting(self, row: Any, column: str) -> SimulationConfig:
        """The simulation configuration of one (row, column) setting."""
        raise NotImplementedError

    def describe(self, sim: SimulationConfig) -> str:
        """Progress text naming the setting whose configuration is ``sim``."""
        raise NotImplementedError

    def require_distinct_labels(self, row_field: str, column_field: str) -> None:
        """Refuse an axis that repeats a label, naming the axis's field.

        The grid keys each setting by its (row label, column label), so a
        repeated label would run its cells twice and keep one sweep.
        """
        rows, columns = self.axes()
        for name, labels in (
            (row_field, [self.row_label(row) for row in rows]),
            (column_field, list(columns)),
        ):
            repeated = sorted({label for label in labels if labels.count(label) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {', '.join(map(repr, repeated))}")


@dataclass
class MatrixStudy:
    """All runs of a two-axis study, keyed by (row label, column label)."""

    config: MatrixConfig
    #: (row label, column label) → that setting's SweepResult
    grid: dict[tuple[str, str], SweepResult] = field(default_factory=dict)

    @property
    def rows(self) -> list[str]:
        """Row labels, in axis order."""
        return [self.config.row_label(row) for row in self.config.axes()[0]]

    @property
    def columns(self) -> list[str]:
        """Column labels, in axis order."""
        return list(self.config.axes()[1])

    def sweep(self, row: Any, column: str) -> SweepResult:
        """The SweepResult of one setting; ``row`` is a label or an axis value."""
        key = row if isinstance(row, str) else self.config.row_label(row)
        return self.grid[(key, column)]


def run_matrix_study(
    config: MatrixConfig,
    *,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
) -> MatrixStudy:
    """Execute the row × column × protocol × load × replication grid.

    The trace is built once, every setting's cells go to the executor in
    one submission (rows, then columns), and the results come back split
    into one :class:`SweepResult` per setting.
    """
    trace = config.mobility.build(seed=config.seed)
    protocol_configs = [p.build() for p in config.protocols]
    rows, columns = config.axes()

    flat: list[Cell] = []
    spans: list[tuple[tuple[str, str], int]] = []  # (setting key, #cells)
    for row in rows:
        for column in columns:
            sweep_cfg = SweepConfig(
                loads=config.loads,
                replications=config.replications,
                master_seed=config.seed,
                shared_trace=True,
                sim=config.setting(row, column),
            )
            cells = build_cells(trace, protocol_configs, sweep_cfg)
            spans.append(((config.row_label(row), column), len(cells)))
            flat.extend(cells)

    hook = None
    if progress is not None:
        report = progress

        def hook(done: int, total: int, cell: Cell) -> None:
            report(
                f"[{done}/{total}] {cell.protocol.label}: "
                f"{config.describe(cell.sweep.sim)} "
                f"load={cell.load} rep={cell.rep} done"
            )

    backend = executor or SerialExecutor()
    results = backend.run(flat, progress=hook)

    study = MatrixStudy(config=config)
    offset = 0
    for key, count in spans:
        study.grid[key] = SweepResult(runs=results[offset : offset + count])
        offset += count
    return study


__all__ = ["MatrixConfig", "MatrixStudy", "run_matrix_study"]
