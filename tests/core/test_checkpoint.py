"""Checkpoint journal: lossless round-trips, crash tolerance, refusals."""

import json
import os

import pytest

from repro.core.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointJournal,
    cell_key,
)
from repro.core.protocols import make_protocol_config
from repro.core.sweep import SweepConfig, build_cells, campaign_fingerprint
from repro.ioutil import atomic_write, atomic_write_bytes, atomic_write_text
from tests.helpers import CHAIN_ROWS, micro_trace, run_micro

FINGERPRINT = {
    "master_seed": 3,
    "loads": [2],
    "replications": 2,
    "shared_trace": True,
    "engine": "des",
    "protocols": ["Epidemic"],
    "traces": ["micro"],
}


@pytest.fixture
def result():
    _, r = run_micro("pure", CHAIN_ROWS, 4, load=2)
    return r


@pytest.fixture
def occupancy_result():
    from repro.core.simulation import SimulationConfig

    _, r = run_micro(
        "pure",
        CHAIN_ROWS,
        4,
        load=2,
        sim_config=SimulationConfig(record_occupancy=True),
    )
    assert r.occupancy_series  # the fixture must exercise the optional field
    return r


class TestRunResultRoundTrip:
    def test_json_round_trip_is_exact(self, result):
        from repro.core.results import RunResult

        back = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back == result
        assert repr(back) == repr(result)  # bit-identical, not just approx

    def test_occupancy_series_round_trips(self, occupancy_result):
        from repro.core.results import RunResult

        back = RunResult.from_dict(
            json.loads(json.dumps(occupancy_result.to_dict()))
        )
        assert back == occupancy_result
        assert isinstance(back.occupancy_series, tuple)

    def test_unknown_field_rejected(self, result):
        from repro.core.results import RunResult

        data = result.to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="unknown RunResult field"):
            RunResult.from_dict(data)

    def test_missing_field_rejected(self, result):
        from repro.core.results import RunResult

        data = result.to_dict()
        del data["delivery_ratio"]
        with pytest.raises(ValueError, match="missing RunResult field"):
            RunResult.from_dict(data)


class TestCellKey:
    def test_keys_on_label_not_registry_name(self):
        trace = micro_trace(CHAIN_ROWS, 4)
        cfg = SweepConfig(loads=(2,), replications=1, master_seed=0)
        variants = [
            make_protocol_config("pq", p=0.25, q=1.0),
            make_protocol_config("pq", p=0.75, q=1.0),
        ]
        keys = {cell_key(c) for c in build_cells(trace, variants, cfg)}
        assert len(keys) == 2  # same registry name, distinct journal keys


class TestJournalLifecycle:
    def test_record_then_reload(self, tmp_path, result):
        key = ("Epidemic", 2, 0)
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(FINGERPRINT)
            assert len(j) == 0
            j.record(key, result)
            assert key in j

        j2 = CheckpointJournal(tmp_path / "camp", resume=True)
        j2.begin(FINGERPRINT)
        assert j2.keys() == [key]
        restored = j2.get(key)
        assert restored == result
        assert repr(restored) == repr(result)
        j2.close()

    def test_record_before_begin_rejected(self, tmp_path, result):
        j = CheckpointJournal(tmp_path / "camp")
        with pytest.raises(CheckpointError, match="begin"):
            j.record(("Epidemic", 2, 0), result)

    def test_populated_dir_without_resume_refused(self, tmp_path, result):
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(FINGERPRINT)
            j.record(("Epidemic", 2, 0), result)
        fresh = CheckpointJournal(tmp_path / "camp")
        with pytest.raises(CheckpointError, match="--resume"):
            fresh.begin(FINGERPRINT)

    def test_resume_into_empty_dir_is_fine(self, tmp_path):
        j = CheckpointJournal(tmp_path / "camp", resume=True)
        j.begin(FINGERPRINT)
        assert len(j) == 0
        j.close()

    def test_fingerprint_mismatch_refused(self, tmp_path):
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(FINGERPRINT)
        other = dict(FINGERPRINT, master_seed=99)
        j2 = CheckpointJournal(tmp_path / "camp", resume=True)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            j2.begin(other)

    def test_schema_mismatch_refused(self, tmp_path):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "manifest.json").write_text(
            json.dumps({"schema": SCHEMA_VERSION + 1, "campaign": FINGERPRINT})
        )
        with pytest.raises(CheckpointError, match="schema version"):
            CheckpointJournal(camp, resume=True).begin(FINGERPRINT)

    def test_unreadable_manifest_refused(self, tmp_path):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable manifest"):
            CheckpointJournal(camp).begin(FINGERPRINT)

    def test_journal_without_manifest_refused(self, tmp_path):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "journal.jsonl").write_text('{"v": 1}\n')
        with pytest.raises(CheckpointError, match="without a manifest"):
            CheckpointJournal(camp, resume=True).begin(FINGERPRINT)


class TestCrashTolerance:
    def _populated(self, tmp_path, result):
        camp = tmp_path / "camp"
        with CheckpointJournal(camp) as j:
            j.begin(FINGERPRINT)
            j.record(("Epidemic", 2, 0), result)
            j.record(("Epidemic", 2, 1), result)
        return camp

    def test_torn_tail_dropped_and_truncated(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        journal = camp / "journal.jsonl"
        clean_size = journal.stat().st_size
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "key": {"protocol": "Epi')  # no newline: torn
        j = CheckpointJournal(camp, resume=True)
        j.begin(FINGERPRINT)
        assert j.dropped_partial
        assert len(j) == 2  # the torn record simply re-runs
        j.close()
        assert journal.stat().st_size == clean_size  # tail truncated away

    def test_poisoned_terminated_line_refused(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        with open(camp / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{this is not json}\n")  # terminated => not a torn append
        j = CheckpointJournal(camp, resume=True)
        with pytest.raises(CheckpointError, match="poisoned journal record"):
            j.begin(FINGERPRINT)

    def test_record_schema_mismatch_refused(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        line = json.dumps(
            {"v": SCHEMA_VERSION + 1, "key": {}, "result": {}}
        )
        with open(camp / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(CheckpointError, match="record schema version"):
            CheckpointJournal(camp, resume=True).begin(FINGERPRINT)

    def test_blank_lines_ignored(self, tmp_path, result):
        camp = self._populated(tmp_path, result)
        with open(camp / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        j = CheckpointJournal(camp, resume=True)
        j.begin(FINGERPRINT)
        assert len(j) == 2
        j.close()


class TestCampaignFingerprint:
    def _grid(self, seed=3):
        trace = micro_trace(CHAIN_ROWS, 4)
        cfg = SweepConfig(loads=(2, 3), replications=2, master_seed=seed)
        protos = [make_protocol_config("pure"), make_protocol_config("ec")]
        return build_cells(trace, protos, cfg), cfg

    def test_json_safe_and_stable(self):
        cells, cfg = self._grid()
        fp = campaign_fingerprint(cells, cfg)
        assert json.loads(json.dumps(fp)) == fp
        assert fp == campaign_fingerprint(cells, cfg)

    def test_seed_changes_fingerprint(self):
        cells_a, cfg_a = self._grid(seed=3)
        cells_b, cfg_b = self._grid(seed=4)
        assert campaign_fingerprint(cells_a, cfg_a) != campaign_fingerprint(
            cells_b, cfg_b
        )

    def _faulted_grid(self, faults):
        from repro.core.simulation import SimulationConfig

        trace = micro_trace(CHAIN_ROWS, 4)
        cfg = SweepConfig(
            loads=(2, 3),
            replications=2,
            master_seed=3,
            sim=SimulationConfig(faults=faults),
        )
        protos = [make_protocol_config("pure"), make_protocol_config("ec")]
        return build_cells(trace, protos, cfg), cfg

    def test_fault_spec_changes_fingerprint(self):
        from repro.faults import FaultSpec

        cells, cfg = self._grid()
        plain = campaign_fingerprint(cells, cfg)
        assert plain["faults"] is None
        faulted_cells, faulted_cfg = self._faulted_grid(
            FaultSpec(churn_rate=1e-4, mean_downtime=500.0, state_loss="all")
        )
        faulted = campaign_fingerprint(faulted_cells, faulted_cfg)
        assert faulted != plain
        assert faulted["faults"]["churn_rate"] == 1e-4
        assert json.loads(json.dumps(faulted)) == faulted

    def test_trivial_fault_spec_fingerprints_like_none(self):
        from repro.faults import FaultSpec

        cells, cfg = self._grid()
        trivial_cells, trivial_cfg = self._faulted_grid(FaultSpec())
        assert campaign_fingerprint(trivial_cells, trivial_cfg) == (
            campaign_fingerprint(cells, cfg)
        )

    def test_resume_against_different_fault_env_refused(self, tmp_path):
        """Satellite acceptance: a campaign journaled without faults must
        refuse a --resume that would mix in faulted cells (and vice
        versa) instead of silently blending the two."""
        from repro.faults import FaultSpec

        cells, cfg = self._grid()
        with CheckpointJournal(tmp_path / "camp") as j:
            j.begin(campaign_fingerprint(cells, cfg))
        faulted_cells, faulted_cfg = self._faulted_grid(
            FaultSpec(churn_rate=1e-4, mean_downtime=500.0)
        )
        j2 = CheckpointJournal(tmp_path / "camp", resume=True)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            j2.begin(campaign_fingerprint(faulted_cells, faulted_cfg))

    def test_traces_pinned_by_content(self):
        cells, cfg = self._grid()
        (entry,) = campaign_fingerprint(cells, cfg)["traces"]
        assert entry["name"] == "micro"
        assert entry["num_nodes"] == 4
        assert entry["contacts"] == len(CHAIN_ROWS)
        assert len(entry["sha256"]) == 64
        shifted = [(s + 1.0, e + 1.0, a, b) for s, e, a, b in CHAIN_ROWS]
        other = build_cells(micro_trace(shifted, 4), [cells[0].protocol], cfg)
        assert campaign_fingerprint(other, cfg)["traces"] != [entry]

    def test_one_entry_per_distinct_trace(self):
        traces = [micro_trace(CHAIN_ROWS, 4), micro_trace(CHAIN_ROWS[:2], 4)]
        cfg = SweepConfig(loads=(2,), replications=2, shared_trace=False)
        cells = build_cells(traces.__getitem__, [make_protocol_config("pure")], cfg)
        entries = campaign_fingerprint(cells, cfg)["traces"]
        assert [e["contacts"] for e in entries] == [3, 2]

    def test_analytic_model_keeps_name_only_entry(self):
        from repro.analytic.surrogate import make_analytic_model

        model = make_analytic_model(num_nodes=1000, beta=1e-5, horizon=100.0)
        cells = build_cells(model, [make_protocol_config("pure")], SweepConfig())
        (entry,) = campaign_fingerprint(cells, SweepConfig())["traces"]
        assert entry == {"name": model.name}

    def test_resume_with_different_mobility_params_refused(self, tmp_path):
        """Regression: trace names carry only the seed, so a resume with a
        different population used to return the journaled results."""
        from repro.scenarios.spec import (
            MobilitySpec,
            ProtocolSpec,
            ScenarioSpec,
            WorkloadSpec,
        )

        def scenario(num_nodes):
            return ScenarioSpec(
                mobility=MobilitySpec(
                    "rwp", {"num_nodes": num_nodes, "horizon": 4000.0}
                ),
                protocols=(ProtocolSpec("pure"),),
                workload=WorkloadSpec(loads=(2, 4), replications=3),
                seed=9,
            )

        scenario(20).run(checkpoint=tmp_path / "camp")
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            scenario(30).run(checkpoint=tmp_path / "camp", resume=True)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_failure_preserves_original_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("precious")

        def _boom(stream):
            stream.write("partial")
            raise RuntimeError("disk gremlin")

        with pytest.raises(RuntimeError, match="disk gremlin"):
            atomic_write(target, _boom)
        assert target.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.txt"]  # no .tmp litter

    def test_newline_passthrough(self, tmp_path):
        target = tmp_path / "rows.csv"
        atomic_write(target, lambda fh: fh.write("a\r\n"), newline="")
        assert target.read_bytes() == b"a\r\n"


class TestAtomicWriteBytes:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, lambda fh: fh.write(b"\x00\xffdata"))
        assert target.read_bytes() == b"\x00\xffdata"

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, lambda fh: fh.write(b"new"))
        assert target.read_bytes() == b"new"

    def test_failure_preserves_original_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"precious")

        def _boom(stream):
            stream.write(b"partial")
            raise RuntimeError("disk gremlin")

        with pytest.raises(RuntimeError, match="disk gremlin"):
            atomic_write_bytes(target, _boom)
        assert target.read_bytes() == b"precious"
        assert os.listdir(tmp_path) == ["out.bin"]  # no .tmp litter
