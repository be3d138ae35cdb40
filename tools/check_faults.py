#!/usr/bin/env python3
"""Equivalence gates for the disruption model (:mod:`repro.faults`).

Two acceptance properties of fault injection, checked on the churn
scenario's real sweep grid:

1. **Zero-cost-when-off** — a scenario whose fault spec is *trivial*
   (all rates and probabilities zero) must produce byte-identical
   results to the same scenario with no fault spec at all. Turning the
   subsystem on but injecting nothing may not perturb a single byte of
   any run record.

2. **Faulted determinism** — the scenario's real (non-trivial) fault
   spec must produce byte-identical results under the serial and the
   parallel executor: every cell's fault environment derives from its
   own grid coordinates, so fan-out order cannot leak into results.

3. **Kernel refusal at load time** — forcing ``kernel="soa"`` onto the
   faulted scenario must be rejected when the spec is *built* (the sweep
   kernel has no disruption machinery), with an actionable error — not
   accepted and left to explode mid-campaign.

Each comparison serialises every :meth:`RunResult.to_dict` to canonical
JSON and byte-compares, so any drift — a float ulp, a new counter, a
reordered record — fails loudly. Faulted and unfaulted cells are checked
against the per-event reference schedule by the differential ladder
(``tests/test_ladder.py``).

Usage:
    PYTHONPATH=src python tools/check_faults.py
    PYTHONPATH=src python tools/check_faults.py --scenario path.json --jobs 4
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCENARIO = REPO_ROOT / "examples" / "scenarios" / "churn_resilience.json"


def _encode(runs: list[object]) -> list[bytes]:
    """Canonical per-run byte encodings of a sweep's results."""
    return [
        json.dumps(r.to_dict(), sort_keys=True, allow_nan=False).encode()
        for r in runs  # type: ignore[attr-defined]
    ]


def _diff(label: str, ref: list[bytes], got: list[bytes]) -> list[str]:
    problems: list[str] = []
    if len(ref) != len(got):
        problems.append(f"{label}: {len(got)} runs, expected {len(ref)}")
        return problems
    for i, (a, b) in enumerate(zip(ref, got)):
        if a != b:
            problems.append(f"{label}: run {i} differs")
    return problems


def check_zero_fault(spec, jobs: int) -> list[str]:
    """Trivial spec ≡ no spec."""
    from repro.faults import FaultSpec

    plain = dataclasses.replace(spec, faults=None)
    trivial = dataclasses.replace(spec, faults=FaultSpec())
    ref = _encode(plain.run(jobs=jobs).runs)
    return _diff("trivial-vs-none", ref, _encode(trivial.run(jobs=jobs).runs))


def check_faulted_parallel(spec, jobs: int) -> list[str]:
    """Non-trivial spec: serial ≡ parallel, and runs really are faulted."""
    serial = _encode(spec.run().runs)
    parallel = _encode(spec.run(jobs=jobs).runs)
    problems = _diff("serial-vs-parallel", serial, parallel)
    if not any(b"churn" in raw for raw in serial):
        problems.append(
            "faulted scenario produced no churn counters — the fault spec "
            "did not reach the engine"
        )
    return problems


def check_soa_refused_at_load(spec) -> list[str]:
    """``kernel="soa"`` + non-trivial faults must fail at spec build."""
    try:
        dataclasses.replace(spec, kernel="soa")
    except ValueError as exc:
        message = str(exc)
        if "fault" not in message:
            return [
                "soa-vs-faults refusal raised, but the error does not name "
                f"fault injection as the cause: {message!r}"
            ]
        return []
    return [
        'kernel="soa" with a non-trivial fault spec was accepted at '
        "spec-load time; it must be refused there, not mid-run"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        type=Path,
        default=DEFAULT_SCENARIO,
        help="faulted scenario JSON (default: the churn-resilience scenario)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the parallel passes (default 2)",
    )
    args = parser.parse_args(argv)

    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.load(args.scenario)
    if spec.faults is None or spec.faults.is_trivial:
        raise SystemExit(
            f"scenario {spec.name!r} carries no non-trivial fault spec; "
            "this gate needs one to exercise the disruption model"
        )

    problems = check_soa_refused_at_load(spec)
    problems += check_zero_fault(spec, args.jobs)
    problems += check_faulted_parallel(spec, args.jobs)
    if problems:
        print("FAULT EQUIVALENCE FAILED:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        "fault equivalence OK: trivial spec byte-identical to no spec; "
        "faulted sweep byte-identical serial vs parallel; "
        'kernel="soa" refused at spec-load time'
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
