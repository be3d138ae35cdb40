"""Run one benchmark campaign in a fresh interpreter and report what it measured.

``bench/run.py`` launches this script once per (workload, repeat), with an
empty directory as its cwd, ``HOME``, ``TMPDIR`` and ``XDG_CACHE_HOME``.
The campaign makes the same public calls as ``repro run-scenario --out``::

    ScenarioSpec.load -> spec.run(executor=..., checkpoint=..., resume=...)
    -> the four *_series() aggregations -> write_runs_csv + write_series_json

``spec.run`` receives a thin :class:`TimedExecutor` around
``make_executor(jobs)``; it only marks when ``Executor.run`` is entered and
left, which splits the campaign into set-up and sweep.

With ``--traced`` the public callables of every layer are first wrapped in
spans (see :func:`instrument`) and the campaign runs serially, so every cell
executes in this process and lands in the trace. Spans are kept in memory and
written with the report when the campaign ends.

The report (``--out``, JSON) holds the spans, the sha256 digest of the
``repr`` of every ``RunResult`` in order, the peak RSS of this process, and
the outcome of the output checks.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import resource
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: The SweepResult aggregations ``repro run-scenario`` prints and exports.
SERIES = (
    "delivery_ratio_series",
    "delay_series",
    "buffer_occupancy_series",
    "duplication_series",
)


class Tracer:
    """In-memory spans: name, layer, start, end, parent index and counts."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **counts: Any) -> Iterator[dict[str, Any]]:
        record = {
            "name": name,
            "layer": layer,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "args": counts,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class TimedExecutor:
    """The public ``Executor`` protocol around another executor; spans ``run``."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def run(self, cells: Any, **kwargs: Any) -> Any:
        with self.tracer.span("Executor.run", "core.executors", cells=len(cells)):
            return self.inner.run(cells, **kwargs)


Counts = Callable[[tuple, Any], dict[str, Any]]


def _traced(tracer: Tracer, fn: Callable, layer: str, counts: Counts | None) -> Callable:
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name, layer) as span_counts:
            out = fn(*args, **kwargs)
            if counts is not None:
                span_counts.update(counts(args, out))
            return out

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public callables in spans, where the program looks them up.

    Module functions are replaced on the module their callers read them
    from at call time; methods are replaced on their class.
    """
    import repro.analytic.calibration as calibration
    import repro.analytic.surrogate as surrogate
    import repro.core.sweep as sweep
    import repro.core.sweepkernel as sweepkernel
    import repro.mobility.rwp as rwp
    from repro.core.checkpoint import CheckpointJournal
    from repro.core.simulation import Simulation
    from repro.mobility.contact import ContactTrace
    from repro.scenarios.spec import ScenarioSpec

    def sim_counts(args: tuple, out: Any) -> dict[str, Any]:
        sim = args[0]
        return {"events": sim.engine.events_fired, "batched": sim.batched_encounters}

    targets: list[tuple[Any, str, str, Counts | None]] = [
        (ScenarioSpec, "run", "core.sweep", None),
        (ScenarioSpec, "build_trace", "mobility", lambda a, out: {"contacts": len(out)}),
        (rwp.SubscriberPointRWP, "generate", "mobility", None),
        (rwp, "contacts_from_trajectories", "mobility", None),
        (ContactTrace, "contact_arrays", "mobility", None),
        (sweep, "run_single", "core.sweep", None),
        (Simulation, "__init__", "core.simulation", None),
        (
            sweepkernel,
            "kernel_unsupported_reason",
            "core.simulation",
            lambda a, out: {"fallback": int(out is not None)},
        ),
        # run.py counts a run as an event-engine run only when it has no
        # SweepKernel.run child span
        (Simulation, "run", "des", sim_counts),
        (sweepkernel.SweepKernel, "run", "core.sweepkernel", None),
        (calibration, "cross_validate_scenario", "analytic", None),
        (surrogate, "surrogate_run", "analytic", None),
        (
            CheckpointJournal,
            "begin",
            "core.checkpoint",
            lambda a, out: {"restored": len(a[0])},
        ),
        (CheckpointJournal, "record", "core.checkpoint", None),
    ]
    for owner, attr, layer, counts in targets:
        setattr(owner, attr, _traced(tracer, getattr(owner, attr), layer, counts))


def run_campaign(
    spec_path: str, tracer: Tracer, *, jobs: int, checkpoint: str | None, resume: bool
) -> tuple[Any, Any]:
    """The campaign ``repro run-scenario --out .`` runs, with bench spans around it."""
    from repro.analysis.io import write_runs_csv, write_series_json
    from repro.core.executors import make_executor
    from repro.scenarios.spec import ScenarioSpec

    executor = TimedExecutor(make_executor(jobs), tracer)
    with tracer.span("campaign", "bench"):
        with tracer.span("ScenarioSpec.load", "scenarios"):
            spec = ScenarioSpec.load(spec_path)
        result = spec.run(executor=executor, checkpoint=checkpoint, resume=resume)
        tables = {}
        for method in SERIES:
            with tracer.span(f"SweepResult.{method}", "core.results"):
                tables[method] = getattr(result, method)()
        with tracer.span("write_runs_csv", "analysis.io"):
            write_runs_csv(result, "campaign_runs.csv")
        for method, series in tables.items():
            metric = method.removesuffix("_series")
            with tracer.span("write_series_json", "analysis.io"):
                write_series_json(
                    series,
                    f"campaign_{metric}.json",
                    meta={
                        "scenario": spec.name,
                        "metric": metric,
                        "seed": spec.seed,
                        "loads": list(spec.workload.loads),
                        "replications": spec.workload.replications,
                    },
                )
    return spec, result


def digest(runs: list) -> str:
    """sha256 over the ``repr`` of every RunResult, in order."""
    return hashlib.sha256("\n".join(repr(r) for r in runs).encode()).hexdigest()


def check_outputs(spec: Any, result: Any, *, spot_check: bool) -> list[str]:
    """Problems with the campaign's outputs; empty when they are right."""
    problems = []
    with open("campaign_runs.csv", newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != len(result.runs):
        problems.append(f"runs CSV has {rows} rows for {len(result.runs)} runs")
    loads = set(spec.workload.loads)
    for method in SERIES:
        doc = json.loads(Path(f"campaign_{method.removesuffix('_series')}.json").read_text())
        if len(doc["series"]) != len(spec.protocols) or any(
            p["load"] not in loads for s in doc["series"] for p in s["points"]
        ):
            problems.append(f"{method} export does not match the grid")
    if any(not 0.0 <= r.delivery_ratio <= 1.0 for r in result.runs):
        problems.append("a delivery ratio lies outside [0, 1]")
    if spot_check and spec.engine == "des" and result.runs and not result.failures:
        # An independent tier for the first cell: the event engine must
        # reproduce whatever tier (or journal) produced it, byte for byte.
        from repro.core.sweep import run_single

        event_spec = dataclasses.replace(spec, kernel="event")
        again = run_single(
            spec.build_trace(0),
            event_spec.build_protocols()[0],
            spec.workload.loads[0],
            0,
            event_spec.sweep_config(),
        )
        if repr(again) != repr(result.runs[0]):
            problems.append("the event engine disagrees with the campaign on cell 0")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="scenario JSON file")
    parser.add_argument("--jobs", type=int, default=1, help="cells in flight")
    parser.add_argument("--checkpoint", help="campaign journal directory")
    parser.add_argument("--resume", action="store_true", help="reopen --checkpoint")
    parser.add_argument("--traced", action="store_true", help="span every layer, serially")
    parser.add_argument(
        "--spot-check", action="store_true", help="re-run cell 0 on the event engine"
    )
    parser.add_argument("--out", required=True, help="report file (JSON)")
    parser.add_argument(
        "--launched", type=float, default=time.time(), help="time.time() when this was started"
    )
    args = parser.parse_args(argv)

    # The campaign imports these lazily; importing them now keeps the
    # first-import cost out of the timed region.
    import repro.analysis.io  # noqa: F401
    import repro.analytic.calibration  # noqa: F401
    import repro.analytic.surrogate  # noqa: F401
    import repro.core.checkpoint  # noqa: F401
    import repro.core.sweepkernel  # noqa: F401
    import repro.scenarios.spec  # noqa: F401

    tracer = Tracer()
    if args.traced:
        instrument(tracer)
    report: dict[str, Any] = {
        "error": None,
        "checks": [],
        "env": {
            "cwd": os.getcwd(),
            **{k: os.environ.get(k) for k in ("HOME", "TMPDIR", "XDG_CACHE_HOME")},
        },
        # interpreter start and imports, which a user pays on every run
        "startup_s": time.time() - args.launched,
    }
    try:
        spec, result = run_campaign(
            args.spec,
            tracer,
            jobs=1 if args.traced else args.jobs,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except Exception as exc:  # the runner counts every cell of this repeat as failed
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = tracer.spans[0]["start"]
    report["spans"] = [
        {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in tracer.spans
    ]
    if report["error"] is None:
        report["digest"] = digest(result.runs)
        report["runs"] = len(result.runs)
        report["failures"] = len(result.failures)
        report["churn"] = {
            key: sum(r.churn.get(key, 0) for r in result.runs)
            for key in ("crashes", "failed_transfers")
        }
        report["journal_bytes"] = (
            Path(args.checkpoint, "journal.jsonl").stat().st_size if args.checkpoint else 0
        )
        report["checks"] = check_outputs(spec, result, spot_check=args.spot_check)
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
