"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``list`` — registered experiments.
* ``run <exp_id ...>`` — reproduce figures/tables at a chosen scale; prints
  an ASCII plot + value table per figure, optionally exports CSV/JSON.
* ``run-scenario <file.json>`` — execute a declarative scenario file
  (see :mod:`repro.scenarios`) and print its metric tables; ``--set
  KEY=VALUE`` overrides any scenario key (``--set engine=ode`` runs it
  on the analytic surrogate behind the cross-validation gate).
* ``trace <kind>`` — generate a mobility trace file (canonical format).
* ``stats <file>`` — contact statistics of a trace file.
* ``docs protocols`` — regenerate (or ``--check``) the generated protocol
  reference in ``docs/protocols.md``.

The global ``--jobs N`` flag (accepted before or after the subcommand)
fans sweep grids out over N worker processes; results are bit-identical
to a serial run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from pathlib import Path

from repro.analysis.ascii_plot import render_plot, render_series_table
from repro.analysis.figures import FigureData
from repro.analysis.io import write_runs_csv, write_series_csv, write_series_json
from repro.core.executors import make_executor
from repro.experiments.registry import get_experiment, iter_experiments
from repro.experiments.runner import SCALES, ExperimentRunner
from repro.mobility.rwp import ClassicRWP, ClassicRWPConfig, RWPConfig, SubscriberPointRWP
from repro.mobility.stats import compute_trace_stats
from repro.mobility.synthetic import CampusTraceConfig, CampusTraceGenerator
from repro.mobility.trace_file import read_contact_trace, write_contact_trace
from repro.scenarios import ScenarioSpec


def _cmd_list(_: argparse.Namespace) -> int:
    for exp in iter_experiments():
        print(f"{exp.exp_id:<8} [{exp.kind}]  {exp.title}")
        print(f"         {exp.description}")
    return 0


def _progress_printer(verbose: bool):
    if not verbose:
        return None
    return lambda msg: print(f"  .. {msg}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(
        scale=args.scale,
        seed=args.seed,
        progress=_progress_printer(args.verbose),
        executor=make_executor(args.jobs),
    )
    exp_ids = args.experiments
    if exp_ids == ["all"]:
        exp_ids = [e.exp_id for e in iter_experiments()]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for exp_id in exp_ids:
        exp = get_experiment(exp_id)
        t0 = time.perf_counter()
        artefact = exp.build(runner)
        elapsed = time.perf_counter() - t0
        print(f"==== {exp.title} ({elapsed:.1f}s) ====")
        if isinstance(artefact, FigureData):
            print(render_plot(artefact.series, title="", y_label=artefact.y_label))
            print()
            print(render_series_table(artefact.series))
            if out_dir is not None:
                write_series_csv(artefact.series, out_dir / f"{exp_id}.csv")
                write_series_json(
                    artefact.series,
                    out_dir / f"{exp_id}.json",
                    meta={
                        "experiment": exp_id,
                        "title": exp.title,
                        "metric": artefact.metric,
                        "scale": runner.scale.name,
                        "seed": runner.seed,
                    },
                )
        else:
            print(artefact)
            if out_dir is not None:
                (out_dir / f"{exp_id}.txt").write_text(artefact + "\n", encoding="utf-8")
        print()
    return 0


#: (title, SweepResult aggregation method) pairs printed by run-scenario.
_SCENARIO_METRICS = (
    ("Delivery ratio", "delivery_ratio_series"),
    ("Average delay (s)", "delay_series"),
    ("Buffer occupancy", "buffer_occupancy_series"),
    ("Duplication rate", "duplication_series"),
)


def _gate_lines(report: dict[str, object]) -> list[str]:
    """Compact rendering of a surrogate cross-validation report dict."""
    lines = [
        f"surrogate gate: PASS (reference loads={report['loads']}, "
        f"replications={report['replications']})"
    ]
    pooled = report.get("pooled")
    for row in pooled if isinstance(pooled, list) else ():
        err = row["rel_error"]
        floor = row["noise_floor"]
        lines.append(
            f"  {row['protocol']}/{row['metric']}: "
            + ("err n/a" if err is None else f"err {err:.1%}")
            + ("" if floor is None else f" (DES noise 2·SEM {floor:.1%})")
        )
    return lines


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import CheckpointError
    from repro.core.executors import CellExecutionError

    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    spec = ScenarioSpec.load(args.file)
    if args.set:
        data = spec.to_dict()
        try:
            for keys, value in args.set:
                block = data
                for depth, key in enumerate(keys[:-1], 1):
                    block = block.setdefault(key, {})
                    if not isinstance(block, dict):
                        raise ValueError(f"{'.'.join(keys[:depth])} is not a mapping")
                block[keys[-1]] = value
            spec = ScenarioSpec.from_dict(data)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    label = spec.name or Path(args.file).stem
    # only ODE scenarios run the gate that raises this; DES ones never
    # load the analytic tier
    surrogate_errors: tuple[type[Exception], ...] = ()
    if spec.engine == "ode":
        from repro.analytic.calibration import SurrogateAccuracyError

        surrogate_errors = (SurrogateAccuracyError,)
    t0 = time.perf_counter()
    try:
        result = spec.run(
            jobs=args.jobs if args.jobs > 1 else None,
            progress=_progress_printer(args.verbose),
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except surrogate_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: the surrogate is not trustworthy on this scenario's "
            "reference grid; run it with the event engine (--set engine=des), "
            "raise replications to shrink the DES noise floor, or — to "
            "proceed unanchored — pass --set surrogate_check=false",
            file=sys.stderr,
        )
        return 1
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CellExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: completed cells are preserved when --checkpoint DIR is "
            "set — re-run with --resume to continue; add --set retries=N for "
            "transient worker deaths, or --set on_error=keep-going to record "
            "failures and finish the rest of the grid",
            file=sys.stderr,
        )
        return 1
    elapsed = time.perf_counter() - t0
    print(
        f"==== scenario {label}: {len(result)} runs, "
        f"{len(spec.protocols)} protocols, jobs={args.jobs} ({elapsed:.1f}s) ===="
    )
    if result.surrogate_report is not None:
        for line in _gate_lines(result.surrogate_report):
            print(line)
    if result.failures:
        total_cells = len(result.runs) + len(result.failures)
        print(
            f"warning: {len(result.failures)}/{total_cells} cells failed "
            "(on_error=keep-going); tables below aggregate the surviving "
            "runs, with all-failed loads shown as gaps",
            file=sys.stderr,
        )
        for failure in result.failures:
            print(
                f"  FAILED {failure.protocol_label}: load={failure.load} "
                f"rep={failure.rep} [{failure.kind}] after "
                f"{failure.attempts} attempt(s): {failure.message}",
                file=sys.stderr,
            )
    tables = [
        (title, method.removesuffix("_series"), getattr(result, method)())
        for title, method in _SCENARIO_METRICS
    ]
    for title, _, series in tables:
        print()
        print(f"-- {title} --")
        print(render_series_table(series))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # free-form scenario names must not escape out_dir or break paths
        stem = re.sub(r"[^\w.-]+", "_", label) or "scenario"
        if result.runs:
            write_runs_csv(result, out_dir / f"{stem}_runs.csv")
        if result.failures:
            from repro.ioutil import atomic_write_text

            payload = json.dumps(
                [dataclasses.asdict(f) for f in result.failures], indent=2
            )
            atomic_write_text(out_dir / f"{stem}_failures.json", payload + "\n")
        if spec.record_occupancy:
            payload = [
                {
                    "protocol": run.protocol,
                    "protocol_label": run.protocol_label,
                    "load": run.load,
                    "seed": run.seed,
                    "occupancy_series": [list(p) for p in run.occupancy_series or ()],
                }
                for run in result.runs
            ]
            occ_path = out_dir / f"{stem}_occupancy.json"
            occ_path.write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
        for _, metric, series in tables:
            write_series_json(
                series,
                out_dir / f"{stem}_{metric}.json",
                meta={
                    "scenario": label,
                    "metric": metric,
                    "seed": spec.seed,
                    "loads": list(spec.workload.loads),
                    "replications": spec.workload.replications,
                },
            )
        print(f"\nexports written to {out_dir}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.kind == "campus":
        cfg = CampusTraceConfig(num_nodes=args.nodes)
        trace = CampusTraceGenerator(cfg, seed=args.seed).generate()
    elif args.kind == "rwp":
        trace = SubscriberPointRWP(RWPConfig(num_nodes=args.nodes), seed=args.seed).generate()
    elif args.kind == "classic-rwp":
        trace = ClassicRWP(ClassicRWPConfig(num_nodes=args.nodes), seed=args.seed).generate()
    else:  # pragma: no cover - argparse choices guard this
        raise AssertionError(args.kind)
    write_contact_trace(trace, args.out)
    st = compute_trace_stats(trace)
    print(
        f"wrote {args.out}: {st.num_contacts} contacts, {st.num_nodes} nodes, "
        f"horizon {st.horizon:.0f}s"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # tools/ ships alongside src/ in the repo checkout, not in the
    # installed package — resolve it lazily and fail with guidance.
    try:
        from tools.lintkit.engine import run_cli as lint_cli
    except ImportError:
        print(
            "error: reprolint (tools/lintkit) is not importable — run from "
            "the repository root (`python -m tools.lintkit` needs tools/ on "
            "sys.path)",
            file=sys.stderr,
        )
        return 2
    forward = list(args.paths)
    if args.list_rules:
        forward.append("--list-rules")
    if args.strict:
        forward.append("--strict")
    if args.format != "text":
        forward.extend(["--format", args.format])
    for rule in args.rule or ():
        forward.extend(["--rule", rule])
    return lint_cli(forward)


def _cmd_docs(args: argparse.Namespace) -> int:
    # tools/ ships alongside src/ in the repo checkout, not in the
    # installed package — resolve it lazily and fail with guidance.
    try:
        from tools.gen_protocol_docs import run_cli as docs_cli
    except ImportError:
        print(
            "error: the docs generator (tools/gen_protocol_docs.py) is not "
            "importable — run from the repository root (it needs tools/ on "
            "sys.path)",
            file=sys.stderr,
        )
        return 2
    forward: list[str] = []
    if args.check:
        forward.append("--check")
    if args.out is not None:
        forward.extend(["--out", args.out])
    return docs_cli(forward)


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = read_contact_trace(args.file)
    st = compute_trace_stats(trace)
    for key, value in st.as_dict().items():
        print(f"{key:>28}: {value:.4g}" if isinstance(value, float) else f"{key:>28}: {value}")
    return 0


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _override(text: str) -> tuple[list[str], object]:
    """Parse ``--set KEY=VALUE``: the dotted key's parts, and the value as
    JSON, else as the plain string."""
    key, sep, raw = text.partition("=")
    if not sep or not all(key.split(".")):
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified study of epidemic routing protocols (Feng & Chin, IPDPSW 2012)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        metavar="N",
        help="worker processes for sweep grids (default: 1 = serial)",
    )
    # Subparsers re-declare --jobs with SUPPRESS so `repro run x --jobs 2`
    # works too without clobbering a value given before the subcommand.
    jobs_opt = argparse.ArgumentParser(add_help=False)
    jobs_opt.add_argument(
        "--jobs",
        type=_jobs_count,
        default=argparse.SUPPRESS,
        metavar="N",
        help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="reproduce figures/tables", parents=[jobs_opt])
    p_run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see `repro list`) or 'all'",
    )
    p_run.add_argument(
        "--scale", choices=sorted(SCALES), default="quick", help="sweep grid size"
    )
    p_run.add_argument("--seed", type=int, default=7, help="master seed")
    p_run.add_argument("--out", default=None, help="directory for CSV/JSON exports")
    p_run.add_argument("--verbose", action="store_true", help="progress on stderr")
    p_run.set_defaults(func=_cmd_run)

    p_scenario = sub.add_parser(
        "run-scenario",
        help="execute a declarative scenario file (JSON)",
        parents=[jobs_opt],
    )
    p_scenario.add_argument("file", help="scenario JSON (see repro.scenarios)")
    p_scenario.add_argument("--out", default=None, help="directory for CSV/JSON exports")
    p_scenario.add_argument("--verbose", action="store_true", help="progress on stderr")
    p_scenario.add_argument(
        "--set",
        type=_override,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario key (repeatable): a dotted key descends "
        "into the spec's blocks (faults.churn_rate, mobility.params.num_nodes) "
        "and merges onto them; the value is parsed as JSON, else taken as a "
        "string (e.g. --set engine=ode --set 'buffer_capacity=[4,4,20]')",
    )
    p_scenario.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="campaign directory for crash-safe per-cell journaling: each "
        "completed cell is durably appended, so a killed campaign can be "
        "continued with --resume instead of re-running from scratch",
    )
    p_scenario.add_argument(
        "--resume",
        action="store_true",
        help="continue the campaign journaled in --checkpoint DIR: "
        "journaled cells are restored bit-identically from disk and only "
        "the missing cells execute",
    )
    p_scenario.set_defaults(func=_cmd_run_scenario)

    p_trace = sub.add_parser("trace", help="generate a mobility trace file")
    p_trace.add_argument("kind", choices=["campus", "rwp", "classic-rwp"])
    p_trace.add_argument("--seed", type=int, default=7)
    p_trace.add_argument(
        "--nodes",
        type=int,
        default=12,
        help="population size (default: paper's 12)",
    )
    p_trace.add_argument("--out", required=True, help="output path")
    p_trace.set_defaults(func=_cmd_trace)

    p_stats = sub.add_parser("stats", help="contact statistics of a trace file")
    p_stats.add_argument("file")
    p_stats.set_defaults(func=_cmd_stats)

    p_docs = sub.add_parser(
        "docs",
        help="regenerate or verify generated documentation",
    )
    docs_sub = p_docs.add_subparsers(dest="target", required=True)
    p_docs_protocols = docs_sub.add_parser(
        "protocols",
        help="the protocol reference generated from the registry "
        "(docs/protocols.md)",
    )
    p_docs_protocols.add_argument(
        "--check",
        action="store_true",
        help="verify the committed file is up to date instead of writing "
        "(exit 1 when stale — the CI freshness gate)",
    )
    p_docs_protocols.add_argument(
        "--out",
        default=None,
        help="write to this path instead of docs/protocols.md",
    )
    p_docs_protocols.set_defaults(func=_cmd_docs)

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint (determinism & hot-path static analysis)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools"],
        help="files or directories to lint (default: src tools)",
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--list-rules", action="store_true")
    p_lint.add_argument("--strict", action="store_true")
    p_lint.add_argument("--rule", action="append", default=None, metavar="ID")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
