#!/usr/bin/env python3
"""End-to-end campaign benchmark: five workloads, per-layer spans, pinned digests.

Measure (by default every workload, 7 interleaved repeats and one traced
repeat each)::

    python bench/run.py [--workload NAME]... [--seed K] [--repeats N | --seconds S]
                        [--trace 0|1] [--scale full|tiny] [--out result.json]
                        [--trace-out spans.json] [--pin]

Compare two result files against the bounds in BENCHMARK.json::

    python bench/run.py compare BASE.json NEW.json

Each repeat is one child interpreter (``bench/campaign.py``) in a fresh empty
directory, run one at a time, round-robin across workloads. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The exit code is 1 when a digest or an output
check fails or a cell fails. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"

#: Wall-clock limit of one child; a campaign takes a few seconds.
CHILD_TIMEOUT_S = 120.0

#: Untraced rounds a --seconds run makes at least, so a median has three samples.
MIN_ROUNDS = 3

_RWP_TINY = {
    "mobility": {"params": {"num_nodes": 24, "horizon": 4000.0}},
    "workload": {"loads": [10], "replications": 2},
}


@dataclass(frozen=True)
class Workload:
    """How one workload runs; why it exists is recorded in BENCHMARK.json."""

    spec: str  #: scenario file under bench/workloads/
    jobs: int  #: cells in flight, capped at the CPU count
    journal: str  #: "none", "write" (a fresh journal) or "resume" (reopen a full one)
    tiny: dict  #: spec overrides for --scale tiny


WORKLOADS = {
    "rwp200_soa_cold": Workload("rwp200_soa_cold.json", 2, "none", _RWP_TINY),
    "rwp200_event_antipacket": Workload("rwp200_event_antipacket.json", 1, "none", _RWP_TINY),
    "interval_churn_journal": Workload(
        "interval_churn_journal.json",
        2,
        "write",
        {"workload": {"loads": [5, 10], "replications": 3}},
    ),
    "rwp200_reopen": Workload("rwp200_soa_cold.json", 1, "resume", _RWP_TINY),
    "ode_gate_250k": Workload(
        "ode_gate_250k.json",
        1,
        "none",
        {
            "surrogate_reference": {"params": {"num_nodes": 8, "horizon": 4000.0}},
            "workload": {"loads": [10], "replications": 2},
        },
    ),
}

#: The cold campaign whose journal rwp200_reopen reopens.
REOPEN_SOURCE = "rwp200_soa_cold"


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        nested = isinstance(value, dict) and isinstance(base.get(key), dict)
        out[key] = _merge(base[key], value) if nested else value
    return out


def _jobs(name: str) -> int:
    return min(WORKLOADS[name].jobs, os.cpu_count() or 1)


# --------------------------------------------------------------------------
# children


@dataclass
class Child:
    """One repeat's report, as campaign.py wrote it, or why there is none."""

    workload: str
    traced: bool
    report: dict

    @property
    def ok(self) -> bool:
        return self.report.get("error") is None

    @property
    def spans(self) -> list[dict]:
        return self.report["spans"]

    def _executor(self) -> dict:
        return next(s for s in self.spans if s["name"] == "Executor.run")

    @property
    def campaign_s(self) -> float:
        return self.spans[0]["end"] - self.spans[0]["start"]

    @property
    def setup_s(self) -> float:
        """From launching the interpreter until Executor.run is entered."""
        return self.report["startup_s"] + self._executor()["start"] - self.spans[0]["start"]

    @property
    def sweep_s(self) -> float:
        span = self._executor()
        return span["end"] - span["start"]

    @property
    def cells_executed(self) -> int:
        return self._executor()["args"]["cells"]


class Runner:
    """Launches children, one at a time, in fresh directories under the checkout."""

    def __init__(self, scale: str, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.work = ROOT / ".bench_work" / str(os.getpid())
        self.grid: dict[str, int] = {}
        self.launched = 0
        self.prep: dict | None = None

    def __enter__(self) -> Runner:
        shutil.rmtree(self.work, ignore_errors=True)  # left by a killed run with our pid
        (self.work / "specs").mkdir(parents=True)
        for name in WORKLOADS:
            spec = json.loads((BENCH / "workloads" / WORKLOADS[name].spec).read_text("utf-8"))
            if self.scale == "tiny":
                spec = _merge(spec, WORKLOADS[name].tiny)
            spec["seed"] += self.seed  # every stream of the scenario derives from it
            (self.work / "specs" / f"{name}.json").write_text(json.dumps(spec), "utf-8")
            grid = spec["workload"]
            cells = len(spec["protocols"]) * len(grid["loads"]) * grid["replications"]
            self.grid[name] = cells
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    def _spawn(self, home: Path, name: str, flags: list[str]) -> dict:
        """Run campaign.py in ``home`` (its cwd, HOME, TMPDIR and XDG_CACHE_HOME)."""
        for sub in ("tmp", "cache"):
            (home / sub).mkdir(parents=True, exist_ok=True)
        spec = self.work / "specs" / f"{name}.json"
        cmd = [sys.executable, str(BENCH / "campaign.py"), str(spec), "--out", "report.json"]
        cmd += ["--launched", repr(time.time())]
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            HOME=str(home),
            TMPDIR=str(home / "tmp"),
            XDG_CACHE_HOME=str(home / "cache"),
        )
        proc = subprocess.Popen(
            cmd + flags,
            cwd=home,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stderr = f"no report within {CHILD_TIMEOUT_S:.0f} s"
        finally:
            if proc.poll() is None:  # timed out, or this runner is being stopped
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
                proc.wait()
        report = home / "report.json"
        if proc.returncode == 0 and report.exists():
            return json.loads(report.read_text("utf-8"))
        last = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": f"child failed: {last[0]}"}

    def launch(self, name: str, *, traced: bool = False, spot_check: bool = False) -> Child:
        """One repeat of ``name``."""
        self.launched += 1
        home = self.work / f"{self.launched:04d}-{name}"
        flags = ["--jobs", str(_jobs(name))]
        if traced:
            flags.append("--traced")
        if spot_check:
            flags.append("--spot-check")
        journal = WORKLOADS[name].journal
        if journal == "write":
            flags += ["--checkpoint", "journal"]
        elif journal == "resume":
            prep = self.prepare_reopen()
            if prep.get("error") is not None:
                return Child(name, traced, {"error": f"reopen prep: {prep['error']}"})
            shutil.copytree(self.work / "reopen-prep" / "journal", home / "journal")
            flags += ["--checkpoint", "journal", "--resume"]
        report = self._spawn(home, name, flags)
        shutil.rmtree(home, ignore_errors=True)
        return Child(name, traced, report)

    def prepare_reopen(self) -> dict:
        """Journal the cold campaign once, untimed; every reopen repeat gets a copy."""
        if self.prep is None:
            flags = ["--jobs", str(_jobs(REOPEN_SOURCE)), "--checkpoint", "journal"]
            self.prep = self._spawn(self.work / "reopen-prep", "rwp200_reopen", flags)
            if self.prep.get("error") is None and self.prep["failures"]:
                self.prep["error"] = f"{self.prep['failures']} cell(s) failed"
        return self.prep


def measure(runner: Runner, names: list[str], args: argparse.Namespace) -> list[Child]:
    """Interleaved rounds: one untraced repeat of each workload per round.

    With --trace 1 a traced repeat of each workload follows the first
    round (--repeats) or every round (--seconds).
    """
    if "rwp200_reopen" in names:
        runner.prepare_reopen()
    children: list[Child] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            children.append(runner.launch(name, spot_check=rounds == 0))
            if args.trace and (args.seconds is not None or rounds == 0):
                children.append(runner.launch(name, traced=True))
        rounds += 1
        if args.seconds is None:
            if rounds >= args.repeats:
                return children
            continue
        elapsed = time.perf_counter() - start
        enough = rounds >= (1 if args.trace else MIN_ROUNDS)
        if enough and elapsed + elapsed / rounds > args.seconds:
            return children


# --------------------------------------------------------------------------
# metrics


def e2e_metrics(child: Child) -> dict[str, float]:
    """The end-to-end metrics of one untraced repeat."""
    return {
        "campaign_s": child.campaign_s,
        "setup_s": child.setup_s,
        "peak_rss_mb": child.report["peak_rss_mb"],
    }


def summarize(values: list[float]) -> dict[str, Any]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(
    traced: Child, untraced: list[Child], grid: int, jobs: int
) -> dict[str, float]:
    """The per-layer metrics of one traced repeat (plus the untraced medians)."""
    spans = traced.spans
    own = self_times(spans)
    total = traced.campaign_s

    def idx(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def layer(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s["layer"] == name]

    def dur(indices: list[int]) -> float:
        return sum(spans[i]["end"] - spans[i]["start"] for i in indices)

    def own_of(indices: list[int]) -> float:
        return sum(own[i] for i in indices)

    def count(indices: list[int], key: str) -> int:
        return sum(spans[i]["args"].get(key, 0) for i in indices)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / total

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    def within(i: int, ancestor: int) -> bool:
        while i is not None:
            if i == ancestor:
                return True
            i = spans[i]["parent"]
        return False

    on_soa = {spans[i]["parent"] for i in idx("SweepKernel.run")}
    soa = [i for i in idx("Simulation.run") if i in on_soa]
    event = [i for i in idx("Simulation.run") if i not in on_soa]
    executor = idx("Executor.run")[0]
    cells = [i for i in idx("run_single") if within(i, executor)]
    build = idx("ScenarioSpec.build_trace")
    fired, batched = count(event, "events"), count(event, "batched")
    sweep_s = statistics.median(c.sweep_s for c in untraced)
    report = traced.report
    return {
        "scenarios.load_ms": 1e3 * dur(idx("ScenarioSpec.load")),
        "mobility.build_trace_s": dur(build),
        "mobility.traces": len(build),
        "mobility.contacts": count(build, "contacts"),
        "mobility.contacts_per_s": rate(count(build, "contacts"), dur(build)),
        "mobility.trajectories_pct": pct(own_of(idx("SubscriberPointRWP.generate"))),
        "mobility.extract_pct": pct(own_of(idx("contacts_from_trajectories"))),
        "mobility.contact_arrays_pct": pct(own_of(idx("ContactTrace.contact_arrays"))),
        "core.sim_init_pct": pct(dur(idx("Simulation.__init__"))),
        "core.auto_fallbacks": count(idx("kernel_unsupported_reason"), "fallback"),
        "sweepkernel.cells": len(soa),
        "sweepkernel.pct": pct(own_of(idx("SweepKernel.run"))),
        "sweepkernel.events_per_s": rate(count(soa, "events"), dur(soa)),
        "des.cells": len(event),
        "des.pct": pct(own_of(event)),
        "des.events_fired": fired,
        "des.events_per_s": rate(fired, dur(event)),
        "des.batched_pct": 100.0 * batched / (fired + batched) if fired + batched else 0.0,
        "faults.crashes": report["churn"]["crashes"],
        "faults.failed_transfers": report["churn"]["failed_transfers"],
        "analytic.gate_pct": pct(dur(idx("cross_validate_scenario"))),
        "analytic.ode_cells": len(idx("surrogate_run")),
        "analytic.ode_pct": pct(own_of(idx("surrogate_run"))),
        "executors.cells_per_s": statistics.median(
            rate(c.cells_executed, c.sweep_s) for c in untraced
        ),
        "executors.busy_pct": 100.0 * rate(dur(cells), jobs * sweep_s),
        "executors.overhead_ms_per_cell": 1e3 * (jobs * sweep_s - dur(cells)) / grid,
        "checkpoint.record_pct": pct(dur(idx("CheckpointJournal.record"))),
        "checkpoint.replay_pct": pct(dur(idx("CheckpointJournal.begin"))),
        "checkpoint.restored_cells": count(idx("CheckpointJournal.begin"), "restored"),
        "checkpoint.bytes_per_cell": report["journal_bytes"] / grid,
        "results.aggregate_ms": 1e3 * dur(layer("core.results")),
        "analysis.export_ms": 1e3 * dur(layer("analysis.io")),
        "bench.trace_overhead": traced.campaign_s
        / statistics.median(c.campaign_s for c in untraced),
        "bench.attributed_pct": 100.0 * (1.0 - own[0] / total),
    }


def span_table(spans: list[dict]) -> list[dict[str, Any]]:
    """Per span name: layer, count, total and self time, and its latency percentiles.

    p90 is given only where there are at least 100 samples; otherwise max.
    """
    own = self_times(spans)
    rows: dict[str, dict[str, Any]] = {}
    for s, own_s in zip(spans, own):
        row = rows.setdefault(
            s["name"], {"name": s["name"], "layer": s["layer"], "durations": [], "self_s": 0.0}
        )
        row["durations"].append(s["end"] - s["start"])
        row["self_s"] += own_s
    table = []
    for row in rows.values():
        durations = sorted(row.pop("durations"))
        n = len(durations)
        row.update(n=n, total_s=sum(durations), p50_ms=1e3 * statistics.median(durations))
        if n >= 100:
            row["p90_ms"] = 1e3 * statistics.quantiles(durations, n=10)[-1]
        else:
            row["max_ms"] = 1e3 * durations[-1]
        table.append(row)
    return sorted(table, key=lambda r: -r["self_s"])


def chrome_trace(traced: dict[str, list[Child]]) -> dict[str, Any]:
    """Traced repeats as Chrome trace events: one pid per workload, one tid per repeat."""
    events: list[dict[str, Any]] = []
    for pid, (name, children) in enumerate(traced.items(), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": name}})
        for tid, child in enumerate(children, start=1):
            for i, s in enumerate(child.spans):
                events.append(
                    {
                        "ph": "X",
                        "name": s["name"],
                        "cat": s["layer"],
                        "pid": pid,
                        "tid": tid,
                        "ts": 1e6 * s["start"],
                        "dur": 1e6 * (s["end"] - s["start"]),
                        "args": {"id": i, "parent": s["parent"], **s["args"]},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------
# correctness


def check(
    runner: Runner, names: list[str], children: list[Child], pin: bool
) -> tuple[list[str], dict[str, str]]:
    """Problems with the outputs, and each workload's digest."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    for child in children:
        if not child.ok:
            problems.append(f"{child.workload}: {child.report['error']}")
        problems += [f"{child.workload}: {p}" for p in child.report.get("checks", [])]
    for name in names:
        seen = {c.report["digest"] for c in children if c.workload == name and c.ok}
        if len(seen) > 1:
            problems.append(f"{name}: repeats disagree ({len(seen)} distinct digests)")
        if len(seen) == 1:
            digests[name] = seen.pop()
    reopened = digests.get("rwp200_reopen")
    if reopened and reopened != runner.prep["digest"]:
        problems.append("rwp200_reopen: the reopened campaign differs from the journaled one")
    if reopened and digests.get(REOPEN_SOURCE, reopened) != reopened:
        problems.append("rwp200_reopen: the reopened campaign differs from the cold one")
    if runner.seed == 0 and not pin:
        pinned = json.loads(PINS.read_text("utf-8"))[runner.scale]
        for name, got in digests.items():
            if pinned.get(name) != got:
                problems.append(f"{name}: digest {got[:12]} is not the pinned one")
    return problems, digests


def write_pins(scale: str, digests: dict[str, str]) -> None:
    pins = json.loads(PINS.read_text("utf-8"))
    pins[scale].update(digests)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", "utf-8")


# --------------------------------------------------------------------------
# compare


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """better, worse, same or unresolved, for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    new_wins = all(sign * n < sign * b for n in new for b in base)
    base_wins = all(sign * b < sign * n for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if new_wins else "worse" if base_wins else "unresolved"
    change = sign * (statistics.median(new) / statistics.median(base) - 1.0)
    return "worse" if change > bound else "better" if change < -bound else "same"


def compare(base_path: str, new_path: str) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    base = json.loads(Path(base_path).read_text("utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text("utf-8"))["workloads"]
    worse = 0
    print(f"{'workload':26}{'metric':14}{'base':>11}{'new':>11}{'change':>9}  verdict")
    for name in (n for n in base if n in new):
        for metric in config["end_to_end"]:
            a = base[name]["e2e"][metric["name"]]
            b = new[name]["e2e"][metric["name"]]
            result = verdict(a["values"], b["values"], metric["better"], metric["bound"])
            worse += result == "worse"
            change = b["median"] / a["median"] - 1.0
            print(
                f"{name:26}{metric['name']:14}{a['median']:11.4f}{b['median']:11.4f}"
                f"{change:+9.1%}  {result}"
            )
    return 1 if worse else 0


# --------------------------------------------------------------------------
# main


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="repeatable; default all",
    )
    parser.add_argument(
        "--seed", "--seed-offset", type=int, default=0, help="added to every workload seed"
    )
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, default=7, help="untraced repeats per workload")
    budget.add_argument("--seconds", type=float, help="measure for this long instead")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1, help="add traced repeats"
    )
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="write the full result here (JSON)")
    parser.add_argument("--trace-out", help="write the traced spans here (Chrome trace JSON)")
    parser.add_argument("--pin", action="store_true", help="re-pin the digests (seed 0 only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be >= 0, --repeats >= 1 and --seconds > 0")
    if args.pin and args.seed != 0:
        parser.error("digests are pinned for --seed 0 only")
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = list(dict.fromkeys(args.workload or WORKLOADS))

    # On SIGTERM, unwind so the running child is stopped and the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with Runner(args.scale, args.seed) as runner:
        children = measure(runner, names, args)
        problems, digests = check(runner, names, children, args.pin)

    attempted = failed = 0
    for child in children:
        # a repeat that raised has no run counts: every cell of it failed
        lost = 0 if child.ok else runner.grid[child.workload]
        attempted += child.report.get("runs", 0) + child.report.get("failures", 0) + lost
        failed += child.report.get("failures", 0) + lost
    workloads = {
        name: workload_entry(runner, [c for c in children if c.workload == name], digests)
        for name in names
    }
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    print_report(workloads, units, problems)
    correct = not problems and failed == 0
    if args.pin and correct:
        write_pins(args.scale, digests)
    if args.out:
        result = {
            "scale": args.scale,
            "seed": args.seed,
            "trace": args.trace,
            "environment": {
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "correct": correct,
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
            "workloads": workloads,
        }
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", "utf-8")
    if args.trace_out:
        traced = {
            n: [c for c in children if c.workload == n and c.ok and c.traced] for n in names
        }
        Path(args.trace_out).write_text(json.dumps(chrome_trace(traced)), "utf-8")

    # the contract line: end-to-end metrics with --trace 0, per-layer ones with --trace 1
    key = "per_layer" if args.trace else "e2e"
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    metrics = {}
    for name in names:
        values = workloads[name].get(key, {})
        for metric in (m for m in wanted if m["name"] in values):
            value = values[metric["name"]]
            label = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            metrics[label] = {
                "value": value["median"] if key == "e2e" else value,
                "unit": metric["unit"],
            }
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if correct else 1


def workload_entry(runner: Runner, children: list[Child], digests: dict[str, str]) -> dict:
    """One workload's part of the result: e2e summaries, per-layer medians, span table."""
    name = children[0].workload
    untraced = [c for c in children if c.ok and not c.traced]
    traced = [c for c in children if c.ok and c.traced]
    entry: dict[str, Any] = {"digest": digests.get(name), "grid_cells": runner.grid[name]}
    if untraced:
        rows = [e2e_metrics(c) for c in untraced]
        entry["e2e"] = {m: summarize([r[m] for r in rows]) for m in rows[0]}
    if untraced and traced:
        rows = [layer_metrics(c, untraced, runner.grid[name], _jobs(name)) for c in traced]
        entry["per_layer"] = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
        entry["spans"] = span_table(traced[0].spans)
    entry["repeats"] = [
        {"traced": c.traced, "env": c.report.get("env"), "error": c.report.get("error")}
        for c in children
    ]
    return entry


def print_report(
    workloads: dict[str, Any], units: dict[str, str], problems: list[str]
) -> None:
    for name, entry in workloads.items():
        print(f"== {name}  (digest {str(entry['digest'])[:16]}, {entry['grid_cells']} cells)")
        for metric, s in entry.get("e2e", {}).items():
            print(
                f"  {metric:32}{s['median']:12.4f} {units.get(metric, ''):8}"
                f" min {s['min']:.4f}  max {s['max']:.4f}  n {s['n']}"
            )
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:32}{value:12.4f} {units.get(metric, '')}")
        if entry.get("spans"):
            print(
                f"  {'span (first traced repeat)':34}{'layer':18}{'n':>6}{'self_s':>9}"
                f"{'p50_ms':>9}{'p90|max_ms':>11}"
            )
            for row in entry["spans"]:
                tail = row.get("p90_ms", row.get("max_ms"))
                print(
                    f"  {row['name']:34}{row['layer']:18}{row['n']:6d}{row['self_s']:9.4f}"
                    f"{row['p50_ms']:9.3f}{tail:11.3f}"
                )
    for problem in problems:
        print(f"PROBLEM: {problem}")


if __name__ == "__main__":
    raise SystemExit(main())
