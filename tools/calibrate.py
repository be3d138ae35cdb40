#!/usr/bin/env python3
"""Calibration harness for the mobility substrates.

Sweeps candidate generator configurations and reports, per config, the
trace statistics and the protocol-separation indicators the paper's figures
rely on (see DESIGN.md §5 "expected shape results"). Used during
development to pick the defaults in ``repro.mobility.synthetic`` /
``repro.mobility.rwp``; kept in-tree so the calibration is reproducible.

Writes a JSON report: a header (substrate, seed, grid, a ``generated_at``
stamp) and one result row per (config, protocol, load), so calibration
sweeps can be diffed, archived, and post-processed.

Usage:
    PYTHONPATH=src python tools/calibrate.py campus
    PYTHONPATH=src python tools/calibrate.py rwp --out CALIBRATION_rwp.json
"""

from __future__ import annotations

import argparse
import json
import time
from collections.abc import Mapping, Sequence

from repro import (
    CampusTraceConfig,
    CampusTraceGenerator,
    RWPConfig,
    SimulationConfig,
    SubscriberPointRWP,
    SweepConfig,
    SweepResult,
    compute_trace_stats,
    make_protocol_config,
    run_sweep,
)
from repro.analytic.calibration import pool_sweeps
from repro.analytic.surrogate import (
    UnsupportedProtocolError,
    resolve_meeting_rate,
    transmission_coins,
)

def report_envelope(benchmark: str, **params: object) -> dict[str, object]:
    """The report header: name, parameters and a ``generated_at`` stamp."""
    payload: dict[str, object] = {"benchmark": benchmark}
    payload.update(params)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return payload


def write_report(path: str, payload: Mapping[str, object]) -> None:
    """Write a report as pretty-printed JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def summary_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Fixed-width text table of selected report columns."""
    widths = [
        max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
        for c in columns
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths, strict=True))
    lines = [header, "  ".join("-" * w for w in widths)]
    for r in rows:
        lines.append(
            "  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(columns, widths, strict=True))
        )
    return "\n".join(lines)


PROTOS = [
    make_protocol_config("pq", p=1.0, q=1.0),
    make_protocol_config("ttl", ttl=300.0),
    make_protocol_config("ec"),
    make_protocol_config("immunity"),
    make_protocol_config("dynamic_ttl"),
    make_protocol_config("ec_ttl"),
    make_protocol_config("cumulative_immunity"),
]

#: Columns of the per-row console table (a subset of each result row).
TABLE_COLUMNS = (
    "config",
    "protocol",
    "load",
    "delivery_ratio",
    "delay_s",
    "buffer_occupancy",
    "duplication_rate",
)


def evaluate(
    tag: str, params: dict[str, object], trace  # type: ignore[no-untyped-def]
) -> dict[str, object]:
    """Sweep one candidate config; return its report section."""
    st = compute_trace_stats(trace)
    print(
        f"--- {tag}: contacts={st.num_contacts} node-gap-med={st.intercontact_node.median:.0f}"
        f" pair-gap-med={st.intercontact_pair.median:.0f} dur-med={st.durations.median:.0f}"
    )
    t0 = time.time()
    res = run_sweep(
        trace, PROTOS, SweepConfig(loads=(5, 30, 50), replications=6, master_seed=7)
    )
    elapsed = time.time() - t0
    series = {
        "delivery_ratio": res.delivery_ratio_series(),
        "delay_s": res.delay_series(),
        "buffer_occupancy": res.buffer_occupancy_series(),
        "duplication_rate": res.duplication_series(),
    }
    rows: list[dict[str, object]] = []
    labels = [s.label for s in series["delivery_ratio"]]
    for label in labels:
        per_metric = {
            metric: next(s for s in curves if s.label == label)
            for metric, curves in series.items()
        }
        for i, load in enumerate(per_metric["delivery_ratio"].loads):
            values = {
                # delay is NaN when no replication succeeded — strict-JSON
                # null, not a bare NaN token
                metric: round(v, 4) if v == v else None
                for metric, curve in per_metric.items()
                for v in (curve.values[i],)
            }
            rows.append({"config": tag, "protocol": label, "load": load, **values})
    print(summary_table(rows, TABLE_COLUMNS))
    print(f"  ({elapsed:.1f}s)")
    return {
        "config": tag,
        "params": params,
        "trace_stats": {
            "num_contacts": st.num_contacts,
            "intercontact_node_median": st.intercontact_node.median,
            "intercontact_pair_median": st.intercontact_pair.median,
            "duration_median": st.durations.median,
        },
        "sweep_wall_s": round(elapsed, 2),
        "calibration": surrogate_residuals(trace, res),
        "rows": rows,
    }


def surrogate_residuals(trace, des: SweepResult) -> dict[str, object]:  # type: ignore[no-untyped-def]
    """Analytic-surrogate calibration block for one candidate config.

    Reports the meeting rate β̂ the surrogate would calibrate from this
    trace and, for the surrogate-supported subset of ``PROTOS``, the
    per-(protocol, metric) pooled residuals against the DES sweep just
    run — so a calibration report states how far the mean-field model is
    from this substrate, not only what the DES measured.
    """
    supported = []
    for proto in PROTOS:
        try:
            transmission_coins(proto)
        except UnsupportedProtocolError:
            continue
        supported.append(proto)
    block: dict[str, object] = {
        "supported_protocols": [p.label for p in supported],
        "beta_estimate": None,
        "residuals": [],
    }
    try:
        beta = resolve_meeting_rate(trace, SimulationConfig())
    except ValueError:
        return block  # no contact can carry a bundle — nothing to calibrate
    block["beta_estimate"] = beta
    if not supported:
        return block
    ode = run_sweep(
        trace,
        supported,
        SweepConfig(
            loads=(5, 30, 50),
            replications=6,
            master_seed=7,
            sim=SimulationConfig(engine="ode"),
        ),
    )
    labels = {p.label for p in supported}
    des_subset = SweepResult(runs=[r for r in des.runs if r.protocol_label in labels])
    block["residuals"] = [r.to_dict() for r in pool_sweeps(des_subset, ode)]
    return block


def campus() -> list[dict[str, object]]:
    sections = []
    for mean_ic, sigma, het, dmed in [
        (24_000, 1.0, 0.2, 100.0),
        (24_000, 1.0, 0.2, 90.0),
        (18_000, 1.0, 0.2, 80.0),
    ]:
        params = dict(
            mean_intercontact=mean_ic,
            intercontact_sigma=sigma,
            heterogeneity_sigma=het,
            duration_median=dmed,
        )
        cfg = CampusTraceConfig(
            mean_intercontact=mean_ic,
            intercontact_sigma=sigma,
            heterogeneity_sigma=het,
            duration_median=dmed,
            duration_sigma=0.9,
            max_duration=2_000.0,
            min_duration=20.0,
        )
        trace = CampusTraceGenerator(cfg, seed=7).generate()
        tag = f"campus ic={mean_ic} s={sigma} het={het} dmed={dmed}"
        sections.append(evaluate(tag, params, trace))
    return sections


def rwp() -> list[dict[str, object]]:
    sections = []
    for comm, pts, travel in [
        (40.0, 80, 900.0),
        (30.0, 80, 900.0),
        (40.0, 60, 1_200.0),
    ]:
        params = dict(comm_range=comm, num_subscriber_points=pts, max_travel_time=travel)
        cfg = RWPConfig(
            comm_range=comm, num_subscriber_points=pts, max_travel_time=travel
        )
        trace = SubscriberPointRWP(cfg, seed=7).generate()
        tag = f"rwp range={comm} pts={pts} travel={travel}"
        sections.append(evaluate(tag, params, trace))
    return sections


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("which", nargs="?", choices=("campus", "rwp"), default="campus")
    parser.add_argument(
        "--out",
        default="CALIBRATION.json",
        help="JSON report path (default CALIBRATION.json)",
    )
    args = parser.parse_args(argv)
    sections = {"campus": campus, "rwp": rwp}[args.which]()
    report = report_envelope(
        "mobility_calibration",
        substrate=args.which,
        seed=7,
        loads=[5, 30, 50],
        replications=6,
        results=[row for section in sections for row in section["rows"]],
        configs=[
            {k: v for k, v in section.items() if k != "rows"} for section in sections
        ],
    )
    write_report(args.out, report)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
