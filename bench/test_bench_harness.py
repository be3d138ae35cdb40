"""Tests of the campaign benchmark harness (bench/run.py, bench/campaign.py).

One tiny-scale run of all five workloads goes through the real child-process
path; the tests below read its result file, its Chrome trace and its last
output line.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_run"] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


bench_run = _load_runner()


def _bench(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--scale", "tiny", "--repeats", "1", *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    proc = _bench(
        BENCH / "run.py",
        "--out",
        str(out / "result.json"),
        "--trace-out",
        str(out / "spans.json"),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {
        "line": json.loads(proc.stdout.strip().splitlines()[-1]),
        "result": json.loads((out / "result.json").read_text("utf-8")),
        "trace": json.loads((out / "spans.json").read_text("utf-8")),
    }


def test_all_workloads_run_and_match_their_pins(tiny):
    result = tiny["result"]
    assert result["correct"] and not result["problems"]
    assert set(result["workloads"]) == {w["name"] for w in CONFIG["workloads"]}
    pins = json.loads((BENCH / "pins.json").read_text("utf-8"))["tiny"]
    for name, entry in result["workloads"].items():
        assert entry["digest"] == pins[name]
    assert tiny["line"]["failed"] == 0 and tiny["line"]["attempted"] > 0


def test_every_metric_is_emitted_with_its_unit(tiny):
    workloads = tiny["result"]["workloads"]
    for entry in workloads.values():
        assert set(entry["e2e"]) == {m["name"] for m in CONFIG["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in CONFIG["per_layer"]}
    metrics = tiny["line"]["metrics"]
    for name in workloads:
        for metric in CONFIG["per_layer"]:
            assert metrics[f"{name}.{metric['name']}"]["unit"] == metric["unit"]


def test_traced_runs_attribute_their_time_to_layers(tiny):
    for entry in tiny["result"]["workloads"].values():
        assert entry["per_layer"]["bench.attributed_pct"] >= 90.0


def test_spans_nest_and_self_times_are_not_negative(tiny):
    events = [e for e in tiny["trace"]["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in events} == set(range(1, len(CONFIG["workloads"]) + 1))
    by_repeat: dict[tuple[int, int], dict[int, dict]] = {}
    for e in events:
        by_repeat.setdefault((e["pid"], e["tid"]), {})[e["args"]["id"]] = e
    slack = 1e-3  # microseconds of float rounding
    for spans in by_repeat.values():
        child_time = dict.fromkeys(spans, 0.0)
        for e in spans.values():
            parent = e["args"]["parent"]
            if parent is None:
                continue
            p = spans[parent]
            assert p["ts"] - slack <= e["ts"]
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + slack
            child_time[parent] += e["dur"]
        for i, e in spans.items():
            assert e["dur"] - child_time[i] >= -slack
    for entry in tiny["result"]["workloads"].values():
        assert all(row["self_s"] >= -1e-9 for row in entry["spans"])


def test_children_see_isolated_directories(tiny):
    envs = [r["env"] for e in tiny["result"]["workloads"].values() for r in e["repeats"]]
    cwds = [Path(env["cwd"]) for env in envs]
    assert len(set(cwds)) == len(cwds)
    for env, cwd in zip(envs, cwds):
        assert ROOT / ".bench_work" in cwd.parents
        assert Path(env["HOME"]) == cwd
        assert Path(env["TMPDIR"]).parent == cwd
        assert Path(env["XDG_CACHE_HOME"]).parent == cwd
        assert not cwd.exists()


def test_compare_verdicts():
    verdict = bench_run.verdict
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert verdict(base, [10.1, 10.0, 10.2, 9.9, 10.0], "lower", 0.1) == "same"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], "lower", 0.1) == "worse"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2], "lower", 0.1) == "better"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2], "higher", 0.1) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    # a wide spread, yet every new run beats every base run
    assert verdict(noisy, [4.0, 4.5, 3.0, 4.2, 4.9], "lower", 0.1) == "better"


def test_compare_exits_1_on_a_regression(tmp_path, capsys):
    def result(campaign_s):
        e2e = {
            m["name"]: {"median": 10.0, "values": [10.0, 10.0, 10.0]}
            for m in CONFIG["end_to_end"]
        }
        e2e["campaign_s"] = {"median": campaign_s, "values": [campaign_s] * 3}
        return {"workloads": {"w": {"e2e": e2e}}}

    paths = []
    for i, campaign_s in enumerate((10.0, 10.0, 20.0)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(result(campaign_s)), "utf-8")
    assert bench_run.main(["compare", str(paths[0]), str(paths[1])]) == 0
    assert bench_run.main(["compare", str(paths[0]), str(paths[2])]) == 1
    assert "worse" in capsys.readouterr().out


def test_a_corrupted_pin_fails_the_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    os.symlink(ROOT / "src", tmp_path / "src")
    pins_path = tmp_path / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text("utf-8"))
    pins["tiny"]["interval_churn_journal"] = "0" * 64
    pins_path.write_text(json.dumps(pins), "utf-8")
    proc = _bench(
        tmp_path / "bench" / "run.py", "--trace", "0", "--workload", "interval_churn_journal"
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert set(line["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    assert all(
        line["metrics"][m["name"]]["unit"] == m["unit"] for m in CONFIG["end_to_end"]
    )
