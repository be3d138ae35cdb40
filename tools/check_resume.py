#!/usr/bin/env python3
"""Kill/resume equivalence gate for checkpointed sweep campaigns.

The acceptance property of the checkpoint journal
(:mod:`repro.core.checkpoint`): a campaign killed mid-flight and resumed
with ``--resume`` must export **byte-identical** artefacts to an
uninterrupted run. This harness drives the real CLI in subprocesses:

1. start ``run-scenario --checkpoint CAMP --jobs 2`` on the smoke
   scenario in its own process group, poll the journal, and SIGKILL the
   whole group — the CLI and its pool workers — once a few cells are
   durably recorded (no graceful shutdown — a real crash);
2. re-run the same command with ``--resume --out``, which restores the
   journaled cells and executes only the missing ones, then check that
   the campaign's ``traces/`` store holds exactly one file per distinct
   trace;
3. resume the now complete campaign once more into a second ``--out``
   directory — every cell comes from the journal and every trace from
   the store;
4. run an uninterrupted reference with ``--out`` into a separate
   directory and byte-compare both resumed exports against it.

If the campaign finishes before the kill lands, the check degrades
gracefully: the resume pass then restores *every* cell from the journal,
which exercises the same round-trip property.

Usage:
    PYTHONPATH=src python tools/check_resume.py
    PYTHONPATH=src python tools/check_resume.py --scenario path.json --kill-after 3
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCENARIO = REPO_ROOT / "examples" / "scenarios" / "resume_smoke.json"


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _journal_records(campaign: Path) -> int:
    journal = campaign / "journal.jsonl"
    if not journal.exists():
        return 0
    # only complete (newline-terminated) records count as durable
    return journal.read_bytes().count(b"\n")


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc``'s process group; return once none of it is left."""
    deadline = time.monotonic() + 60.0
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()  # reap the leader; init reaps the orphaned pool workers
        if time.monotonic() > deadline:
            raise SystemExit(f"process group {proc.pid} survived SIGKILL for 60s")
        time.sleep(0.05)


def _kill_mid_flight(
    scenario: Path, campaign: Path, *, kill_after: int, timeout: float
) -> int:
    """Start a checkpointed campaign in its own process group and SIGKILL
    the group once the journal holds ``kill_after`` records.

    Returns the group id; on return no process of the group is left.
    """
    proc = subprocess.Popen(
        _cli(
            "run-scenario",
            str(scenario),
            "--checkpoint",
            str(campaign),
            "--jobs",
            "2",
        ),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                print(
                    f"note: campaign finished (rc={proc.returncode}) before "
                    f"the kill; resume will restore all cells from the journal"
                )
                return proc.pid
            if _journal_records(campaign) >= kill_after:
                _kill_group(proc)
                print(
                    f"killed campaign with {_journal_records(campaign)} "
                    f"journaled cell(s)"
                )
                return proc.pid
            time.sleep(0.05)
    finally:
        _kill_group(proc)
    raise SystemExit(f"campaign did not journal {kill_after} cells in {timeout}s")


def _run_checked(argv: list[str]) -> None:
    result = subprocess.run(argv, cwd=REPO_ROOT)
    if result.returncode != 0:
        raise SystemExit(f"command failed (rc={result.returncode}): {argv}")


def _expected_trace_files(scenario: Path) -> int:
    """Distinct traces the scenario's campaign directory must store."""
    from repro.scenarios.spec import UNSTORED_MOBILITY_KINDS, ScenarioSpec

    spec = ScenarioSpec.load(scenario)
    if spec.mobility.kind in UNSTORED_MOBILITY_KINDS:
        return 0
    return len({spec.trace_seed(rep) for rep in range(spec.workload.replications)})


def _mismatches(reference: Path, resumed: Path) -> tuple[int, list[str]]:
    """Artefacts compared, and how ``resumed`` differs from ``reference``."""
    mismatches = []
    compared = 0
    for ref_file in sorted(reference.iterdir()):
        res_file = resumed / ref_file.name
        if not res_file.exists():
            mismatches.append(f"{resumed.name}/{ref_file.name}: missing")
            continue
        compared += 1
        if ref_file.read_bytes() != res_file.read_bytes():
            mismatches.append(f"{resumed.name}/{ref_file.name}: differs from reference")
    return compared, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        type=Path,
        default=DEFAULT_SCENARIO,
        help="scenario JSON to run (default: the resume smoke scenario)",
    )
    parser.add_argument(
        "--kill-after",
        type=int,
        default=4,
        metavar="N",
        help="SIGKILL the campaign once N cells are journaled (default 4)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for the journal to reach --kill-after",
    )
    args = parser.parse_args(argv)

    spec = json.loads(args.scenario.read_text(encoding="utf-8"))
    stem = spec.get("name", args.scenario.stem)

    with tempfile.TemporaryDirectory(prefix="check_resume.") as tmp:
        work = Path(tmp)
        campaign = work / "campaign"
        resumed_out = work / "resumed"
        reopened_out = work / "reopened"
        reference_out = work / "reference"

        _kill_mid_flight(
            args.scenario,
            campaign,
            kill_after=args.kill_after,
            timeout=args.timeout,
        )

        resume = _cli(
            "run-scenario",
            str(args.scenario),
            "--checkpoint",
            str(campaign),
            "--resume",
            "--jobs",
            "2",
            "--out",
        )
        _run_checked([*resume, str(resumed_out)])
        mismatches = []
        stored = sorted(p.name for p in (campaign / "traces").glob("*"))
        expected = _expected_trace_files(args.scenario)
        if len(stored) != expected:
            mismatches.append(
                f"traces/ holds {len(stored)} file(s) for {expected} distinct "
                f"trace(s): {stored}"
            )
        _run_checked([*resume, str(reopened_out)])
        _run_checked(
            _cli(
                "run-scenario",
                str(args.scenario),
                "--out",
                str(reference_out),
            )
        )

        compared = 0
        for out in (resumed_out, reopened_out):
            count, problems = _mismatches(reference_out, out)
            compared += count
            mismatches += problems
        if not compared:
            mismatches.append(f"no artefacts exported for scenario {stem!r}")
        if mismatches:
            print("RESUME EQUIVALENCE FAILED:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"resume equivalence OK: {compared} artefact(s) byte-identical "
            f"after kill + --resume and a second --resume; {len(stored)} "
            "stored trace(s)"
        )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
