#!/usr/bin/env python3
"""Simulation-core benchmark: events/sec and cell runs/sec per protocol.

Times single sweep cells (one protocol × one population × one load, the
unit of work every experiment grid is made of) on subscriber-point RWP
traces, reports wall time, fired-event throughput, and the speedup against
the pre-optimization measurement pinned in :data:`PRE_OPT_WALL_S`, and
writes the table to a JSON report — the perf trajectory CI tracks next to
``BENCH_contacts.json``.

The grid carries a ``kernel`` dimension: every cell runs on the classic
event engine, and the cells the kernel accepts (:data:`SOA_PROTOCOLS`:
encounter-inert protocols, and anti-packet pq through the kernel's
delivery-knowledge plane) run a second time on the array-resident
contact-sweep kernel (:mod:`repro.core.sweepkernel`). The full scale adds
a 1000-node epidemic cell only the sweep kernel can run interactively.

Usage:
    PYTHONPATH=src python tools/bench_sim.py --scale smoke
    PYTHONPATH=src python tools/bench_sim.py --scale full --repeats 3
    PYTHONPATH=src python tools/bench_sim.py --verify
    PYTHONPATH=src python tools/bench_sim.py --scale smoke \\
        --baseline BENCH_sim.json --max-regression 0.25

``--verify`` turns the run into an equivalence gate: the golden seed
scenarios (campus trace, seed 7 — the same pins as
``tests/core/test_golden_runs.py``) are re-run and every metric must match
bit-for-bit, and every sweep-kernel row with an event twin in the grid —
plus the eligible golden cells — must be byte-identical (``repr``) across
kernels.

``--baseline`` compares fresh events/sec against a committed report and
exits non-zero on regressions beyond ``--max-regression`` (matched rows
only, so a smoke run can gate against the committed full-scale report).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

try:
    from bench_common import (
        compare_to_baseline,
        format_rate,
        load_report,
        median_metric_ratio,
        report_envelope,
        write_report,
    )
except ImportError:  # loaded by file path (tests) rather than from tools/
    import sys as _sys
    from pathlib import Path as _Path

    _sys.path.insert(0, str(_Path(__file__).resolve().parent))
    from bench_common import (
        compare_to_baseline,
        format_rate,
        load_report,
        median_metric_ratio,
        report_envelope,
        write_report,
    )

from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import Simulation
from repro.core.sweep import SweepConfig
from repro.core.workload import single_flow
from repro.des.rng import derive_seed
from repro.mobility.contact import ContactTrace
from repro.mobility.rwp import RWPConfig, SubscriberPointRWP
from repro.mobility.synthetic import CampusTraceGenerator
from repro.mobility.trajectory import contacts_from_trajectories

#: Trace horizon shared by every benchmark cell, seconds.
HORIZON = 20_000.0

#: The protocol trio the benchmark grid times: flooding, TTL, anti-packets.
PROTOCOLS: dict[str, dict[str, object]] = {
    "pure": {},
    "ttl": {"ttl": 300.0},
    "pq": {"p": 1.0, "q": 1.0, "anti_packets": True},
}

#: Constructor kwargs for every golden-pinned protocol: the bench trio plus
#: the control-bearing protocols pinned only for equivalence (ec, immunity)
#: — the knowledge-subsystem refactor is equivalence-gated for each of them.
GOLDEN_PROTOCOLS: dict[str, dict[str, object]] = {
    **PROTOCOLS,
    "ec": {},
    "immunity": {},
}

#: Bench-grid protocols the sweep kernel accepts: the encounter-inert
#: pair, and anti-packet pq, whose i-lists the kernel carries in its
#: delivery-knowledge plane.
SOA_PROTOCOLS = ("pure", "ttl", "pq")

#: Golden-pinned protocols covered by the kernel byte-identity check:
#: the inert ones, and the knowledge-store ones (anti-packet pq, immunity).
SOA_GOLDEN_PROTOCOLS = ("pure", "ttl", "ec", "pq", "immunity")

SCALES: dict[str, dict[str, tuple]] = {
    # CI perf job: small populations, quick; the extra 200-node
    # anti-packet cell covers the per-contact control-plane path at the
    # population size where it dominates: on the event engine (the
    # contact stream's one handler + knowledge-epoch caching) and on the
    # sweep kernel (the delivery-knowledge plane)
    "smoke": {
        "nodes": (25, 50),
        "loads": (10,),
        "extra_cells": (("pq", 200, 30),),
        "soa_cells": (),
    },
    # the committed BENCH_sim.json: the full grid incl. the 100-node
    # epidemic cell the optimization target is measured on (the smoke
    # extra cell is part of the grid here); the 1000-node epidemic cell
    # runs on the sweep kernel only — the event engine needs tens of
    # seconds for it while the kernel stays interactive
    "full": {
        "nodes": (25, 50, 100, 200),
        "loads": (10, 30),
        "extra_cells": (),
        "soa_cells": (("pure", 1000, 30),),
    },
}

#: The tentpole's reference cell: a 100-node epidemic sweep cell.
TARGET_CELL = ("pure", 100, 30)

#: Pre-optimization wall times (seconds, best of 2–3) for every full-scale
#: cell, measured at commit 3367023 (before the incremental planner /
#: allocation-free event scheduling work) with seed 7 on the dev machine.
#: ``speedup_vs_pre_opt`` in the report is measured against these.
PRE_OPT_WALL_S: dict[tuple[str, int, int], float] = {
    ("pure", 25, 10): 0.0045,
    ("pure", 25, 30): 0.0065,
    ("ttl", 25, 10): 0.0046,
    ("ttl", 25, 30): 0.0057,
    ("pq", 25, 10): 0.0057,
    ("pq", 25, 30): 0.0078,
    ("pure", 50, 10): 0.0254,
    ("pure", 50, 30): 0.0283,
    ("ttl", 50, 10): 0.0193,
    ("ttl", 50, 30): 0.0194,
    ("pq", 50, 10): 0.0269,
    ("pq", 50, 30): 0.0259,
    ("pure", 100, 10): 0.1075,
    ("pure", 100, 30): 0.1108,
    ("ttl", 100, 10): 0.0694,
    ("ttl", 100, 30): 0.0727,
    ("pq", 100, 10): 0.0862,
    ("pq", 100, 30): 0.1140,
    ("pure", 200, 10): 0.3973,
    ("pure", 200, 30): 0.5475,
    ("ttl", 200, 10): 0.3754,
    ("ttl", 200, 30): 0.4146,
    ("pq", 200, 10): 0.4436,
    ("pq", 200, 30): 0.5483,
}

#: Golden seed-scenario pins (campus trace, seed 7, reject policy) — the
#: single source of truth: tests/core/test_golden_runs.py imports this
#: table, and ``--verify`` re-checks it in the CI equivalence job. See that
#: test's docstring for how to regenerate after an intentional semantic
#: change.
GOLDEN: dict[tuple[str, int, int], dict[str, float | int]] = {
    ("pure", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=41,
        buffer_occupancy=0.09645330709440073,
        peak_occupancy=0.25833333333333336,
        duplication_rate=0.0946318698294398,
        end_time=9504.79563371244,
    ),
    ("pure", 30, 1): dict(
        delivered=30,
        delay=200638.0333761878,
        transmissions=130,
        buffer_occupancy=0.7822151639604117,
        peak_occupancy=0.8333333333333334,
        duplication_rate=0.11646657918739857,
        end_time=200638.0333761878,
    ),
    ("ttl", 10, 0): dict(
        delivered=10,
        delay=21239.336647955755,
        transmissions=39,
        buffer_occupancy=0.003667423638634794,
        peak_occupancy=0.03333333333333333,
        duplication_rate=0.08630447725195987,
        end_time=21239.336647955755,
    ),
    ("ttl", 30, 1): dict(
        delivered=30,
        delay=217142.23887968616,
        transmissions=510,
        buffer_occupancy=0.005895168217461815,
        peak_occupancy=0.09166666666666666,
        duplication_rate=0.08543936932736591,
        end_time=217142.23887968616,
    ),
    ("pq", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=30,
        buffer_occupancy=0.04834130565739798,
        peak_occupancy=0.12083333333333335,
        duplication_rate=0.09587998441010431,
        end_time=9504.79563371244,
    ),
    ("pq", 30, 1): dict(
        delivered=30,
        delay=46062.10360502355,
        transmissions=232,
        buffer_occupancy=0.22723092182253896,
        peak_occupancy=0.5283333333333337,
        duplication_rate=0.13439470267943393,
        end_time=46062.10360502355,
    ),
    ("ec", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=41,
        buffer_occupancy=0.09645330709440073,
        peak_occupancy=0.25833333333333336,
        duplication_rate=0.0946318698294398,
        end_time=9504.79563371244,
    ),
    ("ec", 30, 1): dict(
        delivered=30,
        delay=185445.126472493,
        transmissions=828,
        buffer_occupancy=0.7763815722510435,
        peak_occupancy=0.8333333333333334,
        duplication_rate=0.11677667946375138,
        end_time=185445.126472493,
        # EC's intrinsic eviction rule fires under load-30 pressure —
        # pinned so the refactored buffer path stays accounting-identical
        drops={"max-ec": 698},
    ),
    ("immunity", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=30,
        buffer_occupancy=0.04834130565739798,
        peak_occupancy=0.12083333333333335,
        duplication_rate=0.09587998441010431,
        end_time=9504.79563371244,
    ),
    ("immunity", 30, 1): dict(
        delivered=30,
        delay=46062.10360502355,
        transmissions=232,
        buffer_occupancy=0.22723092182253896,
        peak_occupancy=0.5283333333333337,
        duplication_rate=0.13439470267943393,
        end_time=46062.10360502355,
    ),
}

#: Every pin's drop table defaults to empty (reject policy, no evictions);
#: cells whose protocol evicts intrinsically pin the exact counts above.
for _expected in GOLDEN.values():
    _expected.setdefault("drops", {})

GOLDEN_FIELDS = (
    "delivered",
    "delay",
    "transmissions",
    "buffer_occupancy",
    "peak_occupancy",
    "duplication_rate",
    "end_time",
    "drops",
)


def build_trace(num_nodes: int, seed: int) -> ContactTrace:
    """Subscriber-point RWP trace for one benchmark population."""
    cfg = RWPConfig(num_nodes=num_nodes, horizon=HORIZON)
    trajectories = SubscriberPointRWP(cfg, seed=seed).generate_trajectories()
    return contacts_from_trajectories(
        trajectories,
        cfg.comm_range,
        contact_cap=cfg.contact_cap,
        horizon=cfg.horizon,
    )


def build_sim(
    trace: ContactTrace,
    protocol_name: str,
    load: int,
    master_seed: int,
    *,
    rep: int = 0,
    kernel: str = "event",
) -> Simulation:
    """One sweep cell's simulation, seeded exactly like ``run_single``."""
    protocol = make_protocol_config(protocol_name, **GOLDEN_PROTOCOLS[protocol_name])
    endpoint_rng = np.random.default_rng(
        derive_seed(master_seed, "workload", load, rep)
    )
    flows = single_flow(trace.num_nodes, load, endpoint_rng)
    run_seed = int(
        derive_seed(
            master_seed, "run", protocol.protocol_name, load, rep
        ).generate_state(1)[0]
    )
    return Simulation(
        trace,
        protocol,
        flows,
        config=replace(SweepConfig().sim, kernel=kernel),
        seed=run_seed,
    )


def bench_cell(
    trace: ContactTrace,
    protocol_name: str,
    load: int,
    master_seed: int,
    repeats: int,
    kernel: str = "event",
) -> dict[str, object]:
    """Best-of-``repeats`` wall time for one (protocol, nodes, load) cell.

    ``events`` counts simulation work, not raw heap traffic:
    ``engine.events_fired`` (heap entries fired plus contact-stream items
    processed, and on the SoA tier the futile contacts it skipped) plus
    the degenerate encounters the deferred end-of-run flush settled
    without reaching the contact handler. The sum equals the event count
    of a one-event-per-contact schedule exactly, so ``events_per_s``
    stays comparable across baselines that predate the batching (the raw
    split is reported alongside).
    """
    best = float("inf")
    events = fired = batched = 0
    for _ in range(repeats):
        sim = build_sim(trace, protocol_name, load, master_seed, kernel=kernel)
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
        fired = sim.engine.events_fired
        batched = sim.batched_encounters
        events = fired + batched
    pre_opt = PRE_OPT_WALL_S.get((protocol_name, trace.num_nodes, load))
    return {
        "protocol": protocol_name,
        "nodes": trace.num_nodes,
        "load": load,
        "kernel": kernel,
        "contacts": len(trace),
        "events": events,
        "events_fired": fired,
        "batched_encounters": batched,
        "wall_s": round(best, 5),
        "events_per_s": round(events / best, 1) if best > 0 else None,
        "cells_per_s": round(1.0 / best, 2) if best > 0 else None,
        "pre_opt_wall_s": pre_opt,
        "speedup_vs_pre_opt": round(pre_opt / best, 2)
        if pre_opt is not None and best > 0
        else None,
    }


#: The seed the GOLDEN pins were measured at. verify_golden always uses
#: it — the pins are meaningless under any other seed, so ``--seed`` only
#: affects the benchmark cells and the kernel-identity check.
GOLDEN_SEED = 7


def verify_golden() -> list[str]:
    """Re-run the golden seed scenarios; return mismatch messages."""
    trace = CampusTraceGenerator(seed=GOLDEN_SEED).generate()
    failures: list[str] = []
    for (name, load, rep), expected in sorted(GOLDEN.items()):
        result = build_sim(trace, name, load, GOLDEN_SEED, rep=rep).run()
        for fld in GOLDEN_FIELDS:
            got = getattr(result, fld)
            if got != expected[fld]:
                failures.append(
                    f"golden {name} load={load} rep={rep}: {fld} "
                    f"{got!r} != pinned {expected[fld]!r}"
                )
    return failures


def verify_kernel(
    trace: ContactTrace, protocol_name: str, load: int, master_seed: int
) -> list[str]:
    """Sweep kernel vs event engine on one cell; reprs must be identical."""
    event = build_sim(trace, protocol_name, load, master_seed).run()
    soa = build_sim(trace, protocol_name, load, master_seed, kernel="soa").run()
    if repr(event) != repr(soa):
        return [
            f"kernel divergence: {protocol_name} n={trace.num_nodes} "
            f"load={load}: soa {soa!r} != event {event!r}"
        ]
    return []


def verify_golden_kernel() -> list[str]:
    """Kernel byte-identity across the eligible extended golden grid."""
    trace = CampusTraceGenerator(seed=GOLDEN_SEED).generate()
    failures: list[str] = []
    for name, load, rep in sorted(GOLDEN):
        if name not in SOA_GOLDEN_PROTOCOLS:
            continue
        event = build_sim(trace, name, load, GOLDEN_SEED, rep=rep).run()
        soa = build_sim(
            trace, name, load, GOLDEN_SEED, rep=rep, kernel="soa"
        ).run()
        if repr(event) != repr(soa):
            failures.append(
                f"kernel divergence: golden {name} load={load} rep={rep}: "
                f"soa {soa!r} != event {event!r}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing per cell"
    )
    parser.add_argument("--out", default="BENCH_sim.json", help="JSON report path")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="equivalence gate: golden seed-scenario pins must match "
        "bit-for-bit, and every sweep-kernel row must be byte-identical "
        "to its event-engine twin",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_sim.json to gate events/sec against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="tolerated fractional events/sec drop vs --baseline (default 0.25)",
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    print(
        f"simulation benchmark: scale={args.scale} seed={args.seed} "
        f"repeats={args.repeats} horizon={HORIZON:.0f}s "
        f"nodes={list(scale['nodes'])} loads={list(scale['loads'])}"
    )

    failures: list[str] = []
    if args.verify:
        failures.extend(verify_golden())
        status = "ok" if not failures else "FAILED"
        print(f"golden seed-scenario pins ({len(GOLDEN)} runs, seed {GOLDEN_SEED}): {status}")
        kernel_failures = verify_golden_kernel()
        failures.extend(kernel_failures)
        status = "ok" if not kernel_failures else "FAILED"
        print(
            f"golden kernel byte-identity ({len(SOA_GOLDEN_PROTOCOLS)} "
            f"protocols, seed {GOLDEN_SEED}): {status}"
        )

    base_cells: list[tuple[str, int, int]] = [
        (protocol_name, n, load)
        for n in scale["nodes"]
        for protocol_name in PROTOCOLS
        for load in scale["loads"]
    ]
    base_cells += [cell for cell in scale["extra_cells"] if cell not in base_cells]
    cells: list[tuple[str, int, int, str]] = []
    for protocol_name, n, load in base_cells:
        cells.append((protocol_name, n, load, "event"))
        if protocol_name in SOA_PROTOCOLS:
            cells.append((protocol_name, n, load, "soa"))
    # kernel-only cells: no event twin, so no equivalence re-run either
    cells += [(p, n, load, "soa") for p, n, load in scale["soa_cells"]]

    rows: list[dict[str, object]] = []
    traces: dict[int, ContactTrace] = {}
    for protocol_name, n, load, kernel in cells:
        if n not in traces:
            traces[n] = build_trace(n, args.seed)
        trace = traces[n]
        row = bench_cell(
            trace, protocol_name, load, args.seed, args.repeats, kernel=kernel
        )
        rows.append(row)
        if args.verify and kernel == "soa" and (protocol_name, n, load, "event") in cells:
            failures.extend(verify_kernel(trace, protocol_name, load, args.seed))
        speedup = row["speedup_vs_pre_opt"]
        speedup_txt = f"×{speedup:.2f}" if speedup is not None else "—"
        print(
            f"  {protocol_name:5s} n={n:<4d} load={load:<3d} {kernel:5s} "
            f"{row['wall_s']:9.4f}s  events={row['events']:>8}  "
            f"{format_rate(row['events_per_s']):>7} ev/s  "
            f"vs pre-opt {speedup_txt:>7}"
        )

    def _target_row(kernel: str) -> dict[str, object] | None:
        key = (*TARGET_CELL, kernel)
        return next(
            (
                r
                for r in rows
                if (r["protocol"], r["nodes"], r["load"], r["kernel"]) == key
            ),
            None,
        )

    target = _target_row("event")
    target_soa = _target_row("soa")
    report = report_envelope(
        "simulation_core",
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        horizon_s=HORIZON,
        mobility="rwp-subscriber",
        target_cell={
            "protocol": TARGET_CELL[0],
            "nodes": TARGET_CELL[1],
            "load": TARGET_CELL[2],
            "pre_opt_wall_s": PRE_OPT_WALL_S[TARGET_CELL],
            "wall_s": target["wall_s"] if target else None,
            "speedup_vs_pre_opt": target["speedup_vs_pre_opt"] if target else None,
            "soa_wall_s": target_soa["wall_s"] if target_soa else None,
            "soa_events_per_s": target_soa["events_per_s"] if target_soa else None,
            "soa_speedup_vs_event": round(target["wall_s"] / target_soa["wall_s"], 2)
            if target and target_soa and target_soa["wall_s"]
            else None,
        },
        results=rows,
    )
    write_report(args.out, report)
    print(f"report written to {args.out}")
    if target is not None:
        print(
            f"target cell (100-node epidemic sweep cell): "
            f"{target['wall_s']}s, ×{target['speedup_vs_pre_opt']} vs pre-opt"
        )
    if target is not None and target_soa is not None and target_soa["wall_s"]:
        print(
            f"target cell on sweep kernel: {target_soa['wall_s']}s, "
            f"×{target['wall_s'] / target_soa['wall_s']:.2f} vs event kernel"
        )

    if args.baseline:
        baseline = load_report(args.baseline)
        # .get() default keeps pre-kernel baselines comparable: their rows
        # were all event-engine runs
        cell_key = lambda r: (  # noqa: E731
            r["protocol"],
            r["nodes"],
            r["load"],
            r.get("kernel", "event"),
        )
        regressions = compare_to_baseline(
            rows,
            baseline.get("results", []),
            key=cell_key,
            metric="events_per_s",
            max_regression=args.max_regression,
        )
        if regressions:
            for msg in regressions:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            return 1
        speed = median_metric_ratio(
            rows, baseline.get("results", []), key=cell_key, metric="events_per_s"
        )
        print(
            f"baseline check vs {args.baseline}: all matched cells within "
            f"{args.max_regression:.0%} (machine-speed factor ×{speed:.2f}) ✓"
        )
        if speed is not None and speed < 1.0 - args.max_regression:
            # The relative gate cancels a uniform slowdown by design; make
            # it loudly visible so a human can judge hardware-vs-regression.
            print(
                f"WARNING: every matched cell runs at ×{speed:.2f} of the "
                "committed baseline — a slower machine, or a uniform "
                "simulation-core regression the relative gate cannot "
                "distinguish. Compare the uploaded reports if this "
                "machine should match the baseline host.",
                file=sys.stderr,
            )

    if failures:
        for msg in failures:
            print(f"ERROR: {msg}", file=sys.stderr)
        return 1
    if args.verify:
        print("equivalence check: golden pins + kernel identity ✓")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
