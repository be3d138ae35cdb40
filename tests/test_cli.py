"""CLI surface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.mobility.rwp import ClassicRWPConfig
from repro.mobility.trace_file import write_contact_trace
from tests.oracles.rwp_trajectory import ReferenceClassicRWP
from tests.oracles.scalar_contacts import exact_contacts

TINY_SCENARIO = {
    "name": "tiny",
    "seed": 3,
    "mobility": {
        "kind": "interval",
        "params": {"num_nodes": 8, "max_encounters_per_node": 10, "max_interval": 300.0},
    },
    "protocols": [{"name": "pure"}, {"name": "ttl", "params": {"ttl": 300.0}}],
    "workload": {"loads": [2, 4], "replications": 2},
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig13"])
        assert args.scale == "quick"
        assert args.seed == 7
        assert args.experiments == ["fig13"]

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "campus"])

    def test_jobs_defaults_to_serial(self):
        assert build_parser().parse_args(["run", "fig13"]).jobs == 1

    def test_jobs_global_and_per_subcommand(self):
        assert build_parser().parse_args(["--jobs", "4", "run", "fig13"]).jobs == 4
        assert build_parser().parse_args(["run", "fig13", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(["run-scenario", "s.json", "--jobs", "2"]).jobs == 2

    def test_trace_nodes_option(self):
        assert build_parser().parse_args(["trace", "rwp", "--out", "x"]).nodes == 12
        args = build_parser().parse_args(["trace", "rwp", "--nodes", "30", "--out", "x"])
        assert args.nodes == 30


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "table2" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Random Waypoint" in capsys.readouterr().out

    def test_run_figure_with_exports(self, tmp_path, capsys):
        code = main(
            ["run", "fig14", "--scale", "smoke", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Interval time = 400" in out
        csv_file = tmp_path / "fig14.csv"
        json_file = tmp_path / "fig14.json"
        assert csv_file.exists()
        doc = json.loads(json_file.read_text())
        assert doc["meta"]["experiment"] == "fig14"
        assert doc["meta"]["scale"] == "smoke"

    def test_run_table_with_export(self, tmp_path, capsys):
        assert main(["run", "table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()

    def test_trace_and_stats_round_trip(self, tmp_path, capsys):
        path = tmp_path / "campus.trace"
        assert main(["trace", "campus", "--seed", "2", "--out", str(path)]) == 0
        assert "contacts" in capsys.readouterr().out
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "num_contacts" in out
        assert "intercontact_pair_median" in out

    def test_trace_engines_write_identical_files(self, tmp_path, capsys):
        """``repro trace classic-rwp`` writes the file of the scalar oracle's
        trace of the reference trajectory loop (``tests/oracles/``)."""
        fast_path = tmp_path / "fast.trace"
        exact_path = tmp_path / "exact.trace"
        argv = ["trace", "classic-rwp", "--seed", "4", "--nodes", "6"]
        assert main(argv + ["--out", str(fast_path)]) == 0
        capsys.readouterr()
        cfg = ClassicRWPConfig(num_nodes=6)
        exact = exact_contacts(
            ReferenceClassicRWP(cfg, seed=4).generate_trajectories(),
            cfg.comm_range,
            contact_cap=cfg.contact_cap,
            horizon=cfg.horizon,
            name="rwp-classic(seed=4)",
        )
        write_contact_trace(exact, exact_path)
        assert fast_path.read_text() == exact_path.read_text()

    def test_trace_campus_honours_nodes_and_rejects_engine(self, tmp_path, capsys):
        path = tmp_path / "campus.trace"
        assert main(["trace", "campus", "--nodes", "6", "--out", str(path)]) == 0
        assert "6 nodes" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["trace", "campus", "--engine", "fast", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99", "--scale", "smoke"])


class TestRunScenario:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        return path

    def test_runs_scenario_file(self, scenario_file, capsys):
        assert main(["run-scenario", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "scenario tiny: 8 runs" in out
        assert "Delivery ratio" in out
        assert "Epidemic with TTL=300" in out

    def test_parallel_matches_serial_output(self, scenario_file, capsys):
        assert main(["run-scenario", str(scenario_file)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["--jobs", "2", "run-scenario", str(scenario_file)]) == 0
        parallel_out = capsys.readouterr().out
        # identical results => identical tables (headers differ in jobs/time)
        assert serial_out.split("====")[-1] == parallel_out.split("====")[-1]

    def test_exports(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run-scenario", str(scenario_file), "--out", str(out_dir)]) == 0
        assert (out_dir / "tiny_runs.csv").exists()
        doc = json.loads((out_dir / "tiny_delivery_ratio.json").read_text())
        assert doc["meta"]["scenario"] == "tiny"
        assert doc["meta"]["loads"] == [2, 4]

    def test_verbose_progress_counts_cells(self, scenario_file, capsys):
        assert main(["run-scenario", str(scenario_file), "--verbose"]) == 0
        err = capsys.readouterr().err
        assert "[1/8]" in err and "[8/8]" in err

    def test_pathological_name_sanitized_in_exports(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({**TINY_SCENARIO, "name": "camp/us base"}))
        out_dir = tmp_path / "out"
        assert main(["run-scenario", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "camp_us_base_runs.csv").exists()

    def test_bad_scenario_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_SCENARIO, "warp": 9}))
        with pytest.raises(ValueError, match="unknown ScenarioSpec key"):
            main(["run-scenario", str(bad)])


HETEROGENEOUS_SCENARIO = {
    **TINY_SCENARIO,
    "name": "tiny-het",
    "buffer_capacity": [1, 1, 1, 1, 4, 4, 4, 4],
    "bundle_tx_time": [100.0, 100.0, 100.0, 100.0, 50.0, 50.0, 50.0, 50.0],
    "drop_policy": "drop-oldest",
}


class TestBufferContentionCli:
    """Acceptance: run-scenario takes per-node capacities + drop policies."""

    @pytest.fixture
    def het_file(self, tmp_path):
        path = tmp_path / "het.json"
        path.write_text(json.dumps(HETEROGENEOUS_SCENARIO))
        return path

    def test_parser_accepts_policy_and_capacity_flags(self):
        args = build_parser().parse_args(
            ["run-scenario", "s.json", "--set", "drop_policy=drop-oldest",
             "--set", "buffer_capacity=4"]
        )
        # a value is JSON when it parses as JSON, else the plain string
        assert args.set == [(["drop_policy"], "drop-oldest"), (["buffer_capacity"], 4)]
        args = build_parser().parse_args(
            ["run-scenario", "s.json", "--set", "buffer_capacity=[1,2,3]"]
        )
        assert args.set == [(["buffer_capacity"], [1, 2, 3])]
        for bad in ("drop_policy", "=4", "faults..churn_rate=1e-4"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run-scenario", "s.json", "--set", bad])

    def test_runs_heterogeneous_scenario_file(self, het_file, capsys):
        assert main(["run-scenario", str(het_file)]) == 0
        out = capsys.readouterr().out
        assert "scenario tiny-het: 8 runs" in out
        assert "Delivery ratio" in out

    def test_policy_override_flag(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        assert main(
            ["run-scenario", str(path), "--set", "drop_policy=drop-random",
             "--set", "buffer_capacity=[1,1,1,1,2,2,2,2]"]
        ) == 0
        overridden = capsys.readouterr().out
        assert "8 runs" in overridden
        # the overrides reach the run: the same tables as a file that sets them
        baked = tmp_path / "baked.json"
        baked.write_text(json.dumps({
            **TINY_SCENARIO,
            "drop_policy": "drop-random",
            "buffer_capacity": [1, 1, 1, 1, 2, 2, 2, 2],
        }))
        assert main(["run-scenario", str(baked)]) == 0
        assert capsys.readouterr().out.split("====")[-1] == overridden.split("====")[-1]
        # a bad value exits 2 with the spec's message, which names the key
        for bad, key in (
            ("drop_policy=fifo", "drop policy"),
            ("buffer_capacity=x", "buffer_capacity"),
            ("buffer_capacity=0", "buffer_capacity"),
        ):
            assert main(["run-scenario", str(path), "--set", bad]) == 2
            assert key in capsys.readouterr().err

    def test_record_occupancy_override_exports_series(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        assert main(["run-scenario", str(path), "--out", str(tmp_path / "plain")]) == 0
        assert not (tmp_path / "plain" / "tiny_occupancy.json").exists()
        out_dir = tmp_path / "occ"
        assert main(
            ["run-scenario", str(path), "--set", "record_occupancy=true",
             "--out", str(out_dir)]
        ) == 0
        runs = json.loads((out_dir / "tiny_occupancy.json").read_text())
        assert len(runs) == 8 and all(run["occupancy_series"] for run in runs)

    def test_repo_example_scenario_loads(self):
        from pathlib import Path

        from repro.scenarios import ScenarioSpec

        example = (
            Path(__file__).parent.parent / "examples" / "scenarios"
            / "heterogeneous_buffers.json"
        )
        spec = ScenarioSpec.load(example)
        assert spec.drop_policy == "drop-oldest"
        assert len(spec.buffer_capacity) == 12


ODE_SCENARIO = {
    "name": "tiny-ode",
    "seed": 11,
    "mobility": {
        "kind": "poisson",
        "params": {
            "num_nodes": 12,
            "beta": 5e-4,
            "horizon": 20000.0,
            "duration": 40.0,
        },
    },
    "protocols": [{"name": "pure"}],
    "workload": {"loads": [2, 4], "replications": 2},
    "buffer_capacity": 64,
    "bundle_tx_time": 1.0,
    "engine": "ode",
    "surrogate_tolerance": 0.5,
}


class TestHybridEngineCli:
    """Acceptance: run-scenario with engine="ode" behind the cross-validation gate."""

    @pytest.fixture
    def ode_file(self, tmp_path):
        path = tmp_path / "ode.json"
        path.write_text(json.dumps(ODE_SCENARIO))
        return path

    def test_parser_accepts_engine_flags(self, ode_file, capsys):
        args = build_parser().parse_args(["run-scenario", "s.json", "--set", "engine=ode"])
        assert args.set == [(["engine"], "ode")]
        args = build_parser().parse_args(
            ["run-scenario", "s.json", "--set", "surrogate_check=false"]
        )
        assert args.set == [(["surrogate_check"], False)]
        assert main(["run-scenario", str(ode_file), "--set", "engine=warp"]) == 2
        assert "unknown engine 'warp'" in capsys.readouterr().err

    def test_runs_ode_scenario_with_gate(self, ode_file, capsys):
        assert main(["run-scenario", str(ode_file)]) == 0
        out = capsys.readouterr().out
        assert "scenario tiny-ode: 4 runs" in out
        assert "surrogate gate: PASS" in out
        assert "DES noise" in out
        assert "Delivery ratio" in out

    def test_no_surrogate_check_skips_gate(self, ode_file, capsys):
        assert main(
            ["run-scenario", str(ode_file), "--set", "surrogate_check=false"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out
        assert "surrogate gate" not in out

    def test_engine_override_forces_des(self, ode_file, capsys):
        assert main(["run-scenario", str(ode_file), "--set", "engine=des"]) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out
        assert "surrogate gate" not in out  # the gate only guards ode runs

    def test_gate_failure_reports_hint_and_exits_nonzero(
        self, ode_file, capsys, monkeypatch
    ):
        import repro.analytic.calibration as calibration
        from repro.analytic.calibration import (
            CrossValidationReport,
            PooledResidual,
        )

        bad = CrossValidationReport(
            residuals=[],
            pooled=[
                PooledResidual(
                    protocol="Pure epidemic",
                    metric="delay",
                    des=100.0,
                    surrogate=180.0,
                    rel_error=0.8,
                    noise_floor=0.02,
                )
            ],
            loads=(2, 4),
            replications=12,
            reference={"kind": "poisson"},
        )
        monkeypatch.setattr(
            calibration, "cross_validate_scenario", lambda spec, progress=None: bad
        )
        assert main(["run-scenario", str(ode_file)]) == 1
        err = capsys.readouterr().err
        assert "refusing to extrapolate" in err
        assert "--set engine=des" in err

    def test_repo_surrogate_smoke_scenario_loads(self):
        from pathlib import Path

        from repro.scenarios import ScenarioSpec

        base = Path(__file__).parent.parent / "examples" / "scenarios"
        smoke = ScenarioSpec.load(base / "surrogate_smoke.json")
        assert smoke.engine == "ode" and smoke.surrogate_check
        scale = ScenarioSpec.load(base / "analytic_scale.json")
        assert scale.mobility.kind == "analytic"
        assert scale.surrogate_reference is not None


class TestDocsCli:
    def test_docs_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["docs"])

    def test_generated_protocol_reference_is_fresh(self, capsys):
        """CI invariant: docs/protocols.md matches the registry."""
        assert main(["docs", "protocols", "--check"]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_writes_to_custom_path(self, tmp_path, capsys):
        out = tmp_path / "protocols.md"
        assert main(["docs", "protocols", "--out", str(out)]) == 0
        text = out.read_text()
        assert "GENERATED FILE" in text
        assert "## `pure`" in text

    def test_stale_file_fails_check(self, tmp_path, capsys):
        out = tmp_path / "protocols.md"
        out.write_text("# stale\n")
        assert main(["docs", "protocols", "--check", "--out", str(out)]) == 1
        assert "stale" in capsys.readouterr().out


class TestFaultToleranceCli:
    """Acceptance: run-scenario checkpoint/resume and failure-policy overrides."""

    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        return path

    def test_parser_accepts_fault_flags(self):
        args = build_parser().parse_args(
            ["run-scenario", "s.json", "--checkpoint", "camp", "--resume",
             "--set", "retries=2", "--set", "cell_timeout=30",
             "--set", "on_error=keep-going"]
        )
        assert args.checkpoint == "camp"
        assert args.resume is True
        assert args.set == [
            (["retries"], 2), (["cell_timeout"], 30), (["on_error"], "keep-going")
        ]
        defaults = build_parser().parse_args(["run-scenario", "s.json"])
        assert defaults.checkpoint is None and defaults.resume is False
        assert defaults.set == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--set", "retries=-1"],
            ["--set", "cell_timeout=0"],
            ["--set", "on_error=shrug"],
        ],
    )
    def test_bad_fault_flags_rejected(self, argv, scenario_file, capsys):
        assert main(["run-scenario", str(scenario_file), *argv]) == 2
        key = argv[1].split("=")[0]
        assert key in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, scenario_file, capsys):
        assert main(["run-scenario", str(scenario_file), "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_then_resume_round_trip(
        self, scenario_file, tmp_path, capsys
    ):
        camp = tmp_path / "camp"
        assert main(
            ["run-scenario", str(scenario_file), "--checkpoint", str(camp)]
        ) == 0
        first = capsys.readouterr().out
        assert (camp / "journal.jsonl").exists()
        assert (camp / "manifest.json").exists()

        # re-running the finished campaign without --resume is refused...
        assert main(
            ["run-scenario", str(scenario_file), "--checkpoint", str(camp)]
        ) == 1
        assert "--resume" in capsys.readouterr().err

        # ...and --resume restores every cell from the journal
        assert main(
            ["run-scenario", str(scenario_file), "--checkpoint", str(camp),
             "--resume"]
        ) == 0
        resumed = capsys.readouterr().out
        assert "scenario tiny: 8 runs" in resumed

        def tables(text):
            return text[text.index("--") :]  # strip the timing banner line

        assert tables(resumed) == tables(first)

    def test_resume_progress_line_in_verbose(self, scenario_file, tmp_path, capsys):
        camp = tmp_path / "camp"
        assert main(
            ["run-scenario", str(scenario_file), "--checkpoint", str(camp)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["run-scenario", str(scenario_file), "--checkpoint", str(camp),
             "--resume", "--verbose"]
        ) == 0
        assert "resume: restored 8 journaled cell(s)" in capsys.readouterr().err

    def test_policy_overrides_round_trip_into_spec(self, scenario_file, capsys):
        # keep-going + retries are accepted end-to-end on a healthy scenario
        assert main(
            ["run-scenario", str(scenario_file), "--set", "retries=1",
             "--set", "on_error=keep-going"]
        ) == 0
        assert "scenario tiny: 8 runs" in capsys.readouterr().out


class TestDisruptionCli:
    """Acceptance: run-scenario fault-model overrides (``--set faults.*``)."""

    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        return path

    def test_parser_accepts_disruption_flags(self):
        args = build_parser().parse_args(
            ["run-scenario", "s.json", "--set", "faults.churn_rate=2e-4",
             "--set", "faults.mean_downtime=500",
             "--set", "faults.contact_drop_prob=0.1",
             "--set", "faults.state_loss=all"]
        )
        assert args.set == [
            (["faults", "churn_rate"], 2e-4),
            (["faults", "mean_downtime"], 500),
            (["faults", "contact_drop_prob"], 0.1),
            (["faults", "state_loss"], "all"),
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--set", "faults.churn_rate=-1e-4"],
            ["--set", "faults.mean_downtime=-5"],
            ["--set", "faults.contact_drop_prob=1.5"],
            ["--set", "faults.state_loss=vaporise"],
        ],
    )
    def test_bad_disruption_flags_rejected(self, argv, scenario_file, capsys):
        assert main(["run-scenario", str(scenario_file), *argv]) == 2
        err = capsys.readouterr().err
        key = argv[1].split("=")[0].removeprefix("faults.")
        assert "faults: " in err and key in err

    def test_inconsistent_override_rejected_with_message(
        self, scenario_file, capsys
    ):
        # churn without a repair time is a FaultSpec invariant violation —
        # surfaced as exit code 2, not a traceback
        assert main(
            ["run-scenario", str(scenario_file), "--set", "faults.churn_rate=1e-4"]
        ) == 2
        assert "mean_downtime" in capsys.readouterr().err

    def test_overrides_inject_faults_end_to_end(
        self, scenario_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        assert main(
            ["run-scenario", str(scenario_file), "--set", "faults.churn_rate=2e-4",
             "--set", "faults.mean_downtime=500", "--set", "faults.state_loss=all",
             "--out", str(out_dir)]
        ) == 0
        assert "scenario tiny: 8 runs" in capsys.readouterr().out
        header = (out_dir / "tiny_runs.csv").read_text().splitlines()[0]
        assert "churn_crashes" in header and "churn_downtime" in header

    def test_override_merges_onto_scenario_fault_spec(self, tmp_path, capsys):
        # a faults.* override extends the file's fault block, not replace it
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps({
            **TINY_SCENARIO,
            "name": "faulty",
            "faults": {"churn_rate": 2e-4, "mean_downtime": 500.0},
        }))
        out_dir = tmp_path / "out"
        assert main(
            ["run-scenario", str(path), "--set", "faults.state_loss=buffer",
             "--out", str(out_dir)]
        ) == 0
        runs = (out_dir / "faulty_runs.csv").read_text()
        assert "churn_crashes" in runs.splitlines()[0]  # churn kept from the file
        baked = tmp_path / "baked.json"
        baked.write_text(json.dumps({
            **TINY_SCENARIO,
            "name": "faulty",
            "faults": {"churn_rate": 2e-4, "mean_downtime": 500.0, "state_loss": "buffer"},
        }))
        assert main(["run-scenario", str(baked), "--out", str(tmp_path / "baked")]) == 0
        assert (tmp_path / "baked" / "faulty_runs.csv").read_text() == runs
