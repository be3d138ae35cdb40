"""Campaign trace store: columnar traces, loads instead of rebuilds, loud failures."""

import math

import numpy as np
import pytest

import repro.scenarios.spec as spec_module
from repro.core.checkpoint import CheckpointError, CheckpointJournal
from repro.core.sweep import run_single
from repro.mobility.contact import ContactTrace
from repro.mobility.trace_file import write_contact_trace
from repro.scenarios.spec import (
    MobilitySpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from tests.helpers import CHAIN_ROWS, micro_trace


def rwp_scenario(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="store",
        mobility=MobilitySpec("rwp", {"num_nodes": 20, "horizon": 4000.0}),
        protocols=(ProtocolSpec("pure"), ProtocolSpec("pq", {"anti_packets": True})),
        workload=WorkloadSpec(loads=(2, 4), replications=2),
        seed=5,
        shared_trace=False,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def no_builds(monkeypatch) -> None:
    """Make every mobility build fail, so only stored traces can be used."""

    def refuse(*args, **kwargs):
        raise AssertionError("a trace was rebuilt instead of loaded")

    monkeypatch.setattr(spec_module, "build_mobility", refuse)


def stored_files(camp) -> list:
    return sorted((camp / "traces").iterdir())


@pytest.fixture
def cold(tmp_path):
    """A fully journaled two-trace campaign and its results."""
    camp = tmp_path / "camp"
    spec = rwp_scenario()
    return spec, camp, spec.run(checkpoint=camp)


class TestFromArrays:
    def test_round_trip_is_exact(self):
        trace = rwp_scenario().build_trace(0)
        back = ContactTrace.from_arrays(
            *trace.contact_arrays(),
            num_nodes=trace.num_nodes,
            horizon=trace.horizon,
            name=trace.name,
        )
        assert back == trace
        assert repr(back) == repr(trace)

    def test_columnar_queries_build_no_contacts(self):
        trace = micro_trace(CHAIN_ROWS, 4)
        back = ContactTrace.from_arrays(
            *trace.contact_arrays(), num_nodes=4, horizon=5000.0
        )
        assert len(back) == 3
        back.contact_arrays()
        assert "contacts" not in vars(back)
        assert back[1] == trace[1]  # indexing materialises them
        assert "contacts" in vars(back)

    def test_soa_cell_builds_no_contacts(self):
        spec = rwp_scenario(kernel="soa")
        built = spec.build_trace(0)
        trace = ContactTrace.from_arrays(
            *built.contact_arrays(),
            num_nodes=built.num_nodes,
            horizon=built.horizon,
            name=built.name,
        )
        pure = spec.build_protocols()[0]
        got = run_single(trace, pure, 4, 0, spec.sweep_config())
        assert repr(got) == repr(run_single(built, pure, 4, 0, spec.sweep_config()))
        assert "contacts" not in vars(trace)

    def test_columns_are_copied(self):
        starts = np.array([1.0, 2.0])
        trace = ContactTrace.from_arrays(
            starts, [5.0, 6.0], [0, 1], [1, 2], num_nodes=3, horizon=10.0
        )
        starts[0] = 9.0
        assert trace.contact_arrays()[0][0] == 1.0

    @pytest.mark.parametrize(
        ("rows", "num_nodes", "horizon", "match"),
        [
            ([(1.0, 2.0, 1, 1)], 3, 10.0, "a < b"),
            ([(1.0, 2.0, 2, 1)], 3, 10.0, "a < b"),
            ([(1.0, 2.0, 0, 3)], 3, 10.0, "outside"),
            ([(1.0, 2.0, -1, 1)], 3, 10.0, "outside"),
            ([(-1.0, 2.0, 0, 1)], 3, 10.0, "start < end"),
            ([(2.0, 2.0, 0, 1)], 3, 10.0, "start < end"),
            ([(3.0, 4.0, 0, 1), (1.0, 2.0, 0, 1)], 3, 10.0, "order"),
            ([(1.0, 4.0, 0, 1), (1.0, 2.0, 0, 1)], 3, 10.0, "order"),
            ([(1.0, 2.0, 1, 2), (1.0, 2.0, 0, 2)], 3, 10.0, "order"),
            ([(1.0, 2.0, 0, 2), (1.0, 2.0, 0, 1)], 3, 10.0, "order"),
            ([(1.0, 20.0, 0, 1)], 3, 10.0, "horizon"),
            ([(1.0, math.inf, 0, 1)], 3, 10.0, "start < end"),
            ([(math.nan, 2.0, 0, 1)], 3, 10.0, "start < end"),
            ([(1.0, 2.0, 0, 1)], 3, math.nan, "horizon must be finite"),
            ([(1.0, 2.0, 0, 1)], 3, math.inf, "horizon must be finite"),
        ],
    )
    def test_broken_invariant_rejected(self, rows, num_nodes, horizon, match):
        starts, ends, a, b = (list(col) for col in zip(*rows, strict=True))
        with pytest.raises(ValueError, match=match):
            ContactTrace.from_arrays(
                starts, ends, a, b, num_nodes=num_nodes, horizon=horizon
            )

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ContactTrace.from_arrays(
                [1.0, 2.0], [3.0], [0], [1], num_nodes=2, horizon=10.0
            )


class TestReadOnlyColumns:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_in_place_writes_raise(self, columnar):
        trace = micro_trace(CHAIN_ROWS, 4)
        if columnar:
            trace = ContactTrace.from_arrays(
                *trace.contact_arrays(), num_nodes=4, horizon=trace.horizon
            )
        for column in trace.contact_arrays():
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]


class TestStore:
    def test_one_file_per_distinct_trace(self, cold):
        spec, camp, _ = cold
        assert len(stored_files(camp)) == spec.workload.replications

    def test_stored_arrays_round_trip_bit_for_bit(self, cold, monkeypatch):
        spec, camp, _ = cold
        fresh = [spec.build_trace(rep) for rep in range(2)]
        no_builds(monkeypatch)
        factory = spec._stored_trace_factory(CheckpointJournal(camp, resume=True))
        for rep, built in enumerate(fresh):
            loaded = factory(rep)
            assert "contacts" not in vars(loaded)
            for got, want in zip(
                loaded.contact_arrays(), built.contact_arrays(), strict=True
            ):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert (loaded.num_nodes, loaded.horizon, loaded.name) == (
                built.num_nodes,
                built.horizon,
                built.name,
            )

    def test_full_resume_loads_every_trace(self, cold, monkeypatch):
        spec, camp, first = cold
        no_builds(monkeypatch)
        resumed = spec.run(checkpoint=camp, resume=True)
        assert repr(resumed.runs) == repr(first.runs)

    @pytest.mark.parametrize("kernel", ["auto", "event"])
    def test_truncated_journal_resumes_from_store(self, cold, monkeypatch, kernel):
        spec, camp, first = cold
        journal = camp / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3]))
        no_builds(monkeypatch)
        resumed = ScenarioSpec.from_dict(dict(spec.to_dict(), kernel=kernel)).run(
            checkpoint=camp, resume=True
        )
        assert repr(resumed.runs) == repr(first.runs)

    def test_truncated_file_raises_naming_it(self, cold):
        spec, camp, _ = cold
        victim = stored_files(camp)[0]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match=victim.name):
            spec.run(checkpoint=camp, resume=True)

    def test_mismatched_recipe_raises_naming_it(self, cold):
        spec, camp, _ = cold
        first, second = stored_files(camp)
        second.write_bytes(first.read_bytes())
        with pytest.raises(CheckpointError, match="built from") as err:
            spec.run(checkpoint=camp, resume=True)
        assert str(second) in str(err.value)

    def test_refused_resume_writes_nothing(self, cold):
        spec, camp, _ = cold
        before = stored_files(camp)
        other = rwp_scenario(
            mobility=MobilitySpec("rwp", {"num_nodes": 30, "horizon": 4000.0})
        )
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            other.run(checkpoint=camp, resume=True)
        assert stored_files(camp) == before

    def test_trace_file_kind_stores_nothing(self, tmp_path):
        path = tmp_path / "chain.trace"
        write_contact_trace(micro_trace(CHAIN_ROWS, 4, horizon=5000.0), path)
        spec = rwp_scenario(
            mobility=MobilitySpec("trace_file", {"path": str(path)}),
            shared_trace=True,
        )
        spec.run(checkpoint=tmp_path / "camp")
        assert not (tmp_path / "camp" / "traces").exists()

    def test_analytic_kind_stores_nothing(self, tmp_path):
        spec = rwp_scenario(
            mobility=MobilitySpec(
                "analytic", {"num_nodes": 500, "beta": 1e-5, "horizon": 20000.0}
            ),
            protocols=(ProtocolSpec("pure"),),
            engine="ode",
            surrogate_check=False,
        )
        spec.run(checkpoint=tmp_path / "camp")
        assert (tmp_path / "camp" / "journal.jsonl").exists()
        assert not (tmp_path / "camp" / "traces").exists()
