"""CSV/JSON exports for runs and figure series.

All experiment artefacts are written as plain CSV (stdlib ``csv``) or JSON
so they can be post-processed anywhere; ``read_series_csv`` round-trips the
series format for downstream tooling and tests. Every writer goes through
:func:`repro.ioutil.atomic_write`, so an export either appears complete
under its target name or not at all — a killed campaign never leaves a
truncated CSV that downstream tooling would happily half-read.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TextIO

from repro.core.results import Series, SeriesPoint, SweepResult
from repro.ioutil import atomic_write


def write_runs_csv(sweep: SweepResult, path: str | Path) -> None:
    """One row per run, with all metrics and counters flattened."""
    if not sweep.runs:
        raise ValueError("sweep has no runs")
    rows = [r.as_row() for r in sweep.runs]
    fieldnames = list(rows[0].keys())
    for row in rows[1:]:  # later runs may add signaling/removal columns
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    def _write(fh: TextIO) -> None:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)

    atomic_write(path, _write, newline="")


def write_series_csv(series: list[Series], path: str | Path) -> None:
    """Long-format curve export: series, load, value, n."""
    def _write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(["series", "load", "value", "n"])
        for s in series:
            for p in s.points:
                writer.writerow(
                    [s.label, p.load, "" if math.isnan(p.value) else repr(p.value), p.n]
                )

    atomic_write(path, _write, newline="")


def read_series_csv(path: str | Path) -> list[Series]:
    """Round-trip reader for :func:`write_series_csv`.

    Raises:
        ValueError: on a malformed header or row.
    """
    out: dict[str, Series] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series", "load", "value", "n"]:
            raise ValueError(f"unexpected header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"line {line_no}: expected 4 cells, got {len(row)}")
            label, load_s, value_s, n_s = row
            try:
                load = int(load_s)
                value = float(value_s) if value_s else math.nan
                n = int(n_s)
            except ValueError as exc:
                raise ValueError(f"line {line_no}: unparsable row {row!r}") from exc
            out.setdefault(label, Series(label=label)).points.append(
                SeriesPoint(load=load, value=value, n=n)
            )
    return list(out.values())


def write_series_json(
    series: list[Series], path: str | Path, *, meta: dict[str, object] | None = None
) -> None:
    """JSON export: {meta, series: [{label, points: [{load, value, n}]}]}."""
    doc = {
        "meta": meta or {},
        "series": [
            {
                "label": s.label,
                "points": [
                    {
                        "load": p.load,
                        "value": None if math.isnan(p.value) else p.value,
                        "n": p.n,
                    }
                    for p in s.points
                ],
            }
            for s in series
        ],
    }
    atomic_write(path, lambda fh: json.dump(doc, fh, indent=2))
