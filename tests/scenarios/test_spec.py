"""Scenario specs: JSON round-trips, validation, mobility registry."""

import json
import math

import pytest

from repro.mobility.contact import ContactTrace
from repro.scenarios import (
    MobilitySpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_mobility,
    mobility_names,
    register_mobility,
)


def tiny_scenario(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="tiny",
        mobility=MobilitySpec(
            "interval",
            {"num_nodes": 8, "max_encounters_per_node": 10, "max_interval": 300.0},
        ),
        protocols=(ProtocolSpec("pure"), ProtocolSpec("ttl", {"ttl": 300.0})),
        workload=WorkloadSpec(loads=(2, 4), replications=2),
        seed=3,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestMobilityRegistry:
    def test_builtins_registered(self):
        names = mobility_names()
        for kind in ("campus", "rwp", "classic_rwp", "interval", "trace_file"):
            assert kind in names

    def test_build_known_kind(self):
        trace = build_mobility("interval", seed=1, num_nodes=6, max_encounters_per_node=4)
        assert trace.num_nodes == 6

    def test_unknown_kind_lists_available(self):
        with pytest.raises(KeyError, match="campus"):
            build_mobility("warp-drive")

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="wormholes"):
            build_mobility("interval", seed=0, wormholes=3)

    def test_register_custom_kind(self):
        @register_mobility("test-pair")
        def _pair(*, seed: int = 0, gap: float = 100.0) -> ContactTrace:
            return ContactTrace.from_tuples(
                [(gap, gap + 50.0, 0, 1)], 2, horizon=1_000.0
            )

        trace = MobilitySpec("test-pair", {"gap": 200.0}).build(seed=0)
        assert trace[0].start == 200.0
        # idempotent for the same builder, rejected for a different one
        register_mobility("test-pair", _pair)
        with pytest.raises(ValueError, match="already registered"):
            register_mobility("test-pair", lambda **kw: None)

    def test_trace_file_kind(self, tmp_path):
        from repro.mobility.trace_file import write_contact_trace

        trace = ContactTrace.from_tuples([(10.0, 60.0, 0, 1)], 3, horizon=500.0)
        path = tmp_path / "t.trace"
        write_contact_trace(trace, path)
        loaded = build_mobility("trace_file", path=str(path))
        assert len(loaded) == 1 and loaded.num_nodes == 3
        with pytest.raises(ValueError, match="path"):
            build_mobility("trace_file")
        with pytest.raises(ValueError, match="format"):
            build_mobility("trace_file", path=str(path), format="xml")


class TestMobilitySpec:
    def test_round_trip(self):
        spec = MobilitySpec("rwp", {"num_nodes": 10}, seed=5)
        assert MobilitySpec.from_dict(spec.to_dict()) == spec

    def test_minimal_dict(self):
        spec = MobilitySpec.from_dict({"kind": "campus"})
        assert spec == MobilitySpec("campus")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown MobilitySpec key"):
            MobilitySpec.from_dict({"kind": "campus", "speed": 3})

    def test_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MobilitySpec.from_dict({"params": {}})

    def test_own_seed_wins(self):
        pinned = MobilitySpec(
            "interval", {"num_nodes": 6, "max_encounters_per_node": 4}, seed=1
        )
        inherit = MobilitySpec(
            "interval", {"num_nodes": 6, "max_encounters_per_node": 4}
        )
        assert pinned.build(seed=99).contacts == pinned.build(seed=1).contacts
        assert inherit.build(seed=1).contacts == pinned.build(seed=123).contacts


class TestProtocolSpec:
    def test_build(self):
        config = ProtocolSpec("pq", {"p": 0.5, "q": 0.25}).build()
        assert config.protocol_name == "pq"
        assert config.p == 0.5

    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="available"):
            ProtocolSpec("carrier-pigeon").build()

    def test_bad_params(self):
        with pytest.raises(ValueError, match="bad parameters"):
            ProtocolSpec("pq", {"warp": 9}).build()

    def test_round_trip(self):
        spec = ProtocolSpec("ttl", {"ttl": 120.0})
        assert ProtocolSpec.from_dict(spec.to_dict()) == spec


class TestWorkloadSpec:
    def test_defaults_match_paper(self):
        spec = WorkloadSpec()
        assert spec.loads == tuple(range(5, 55, 5))
        assert spec.replications == 10

    @pytest.mark.parametrize(
        "kwargs",
        [{"loads": ()}, {"loads": (0,)}, {"replications": 0}],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_round_trip(self):
        spec = WorkloadSpec(loads=(1, 2, 3), replications=4)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_loads_must_be_list(self):
        with pytest.raises(ValueError, match="loads"):
            WorkloadSpec.from_dict({"loads": "5,10"})

    def test_non_integral_loads_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integers"):
            WorkloadSpec(loads=(2.5, 7))
        assert WorkloadSpec(loads=(5.0, 10)).loads == (5, 10)  # integral ok


class TestScenarioSpec:
    def test_round_trip(self):
        spec = tiny_scenario()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = tiny_scenario(shared_trace=False, buffer_capacity=5)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = tiny_scenario()
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec
        # the on-disk form is plain JSON
        assert json.loads(path.read_text())["name"] == "tiny"

    def test_unknown_key_rejected(self):
        data = tiny_scenario().to_dict()
        data["gpu"] = True
        with pytest.raises(ValueError, match="unknown ScenarioSpec key"):
            ScenarioSpec.from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = tiny_scenario().to_dict()
        data["workload"]["warmup"] = 10
        with pytest.raises(ValueError, match="unknown WorkloadSpec key"):
            ScenarioSpec.from_dict(data)

    def test_bad_values_rejected(self):
        data = tiny_scenario().to_dict()
        data["workload"]["replications"] = 0
        with pytest.raises(ValueError, match="replications"):
            ScenarioSpec.from_dict(data)
        data = tiny_scenario().to_dict()
        data["buffer_capacity"] = 0
        with pytest.raises(ValueError, match="buffer_capacity"):
            ScenarioSpec.from_dict(data)

    def test_requires_mobility_and_protocols(self):
        with pytest.raises(ValueError, match="mobility"):
            ScenarioSpec.from_dict({"protocols": [{"name": "pure"}]})
        with pytest.raises(ValueError, match="protocols"):
            ScenarioSpec.from_dict({"mobility": {"kind": "campus"}})
        with pytest.raises(ValueError, match="at least one protocol"):
            tiny_scenario(protocols=())

    def test_not_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            ScenarioSpec.from_json("{nope")

    def test_sweep_config_mirrors_spec(self):
        spec = tiny_scenario(buffer_capacity=7, bundle_tx_time=50.0)
        cfg = spec.sweep_config()
        assert cfg.loads == (2, 4)
        assert cfg.replications == 2
        assert cfg.master_seed == 3
        assert cfg.sim.buffer_capacity == 7
        assert cfg.sim.bundle_tx_time == 50.0

    def test_build_protocols(self):
        labels = [p.label for p in tiny_scenario().build_protocols()]
        assert labels[0] == "Pure epidemic"
        assert "TTL" in labels[1]

    def test_shared_trace_is_seed_stable(self):
        spec = tiny_scenario()
        assert spec.build_trace(0).contacts == spec.build_trace(5).contacts

    def test_unshared_trace_varies_by_rep(self):
        spec = tiny_scenario(shared_trace=False)
        assert spec.build_trace(0).contacts != spec.build_trace(1).contacts

    def test_unshared_trace_varies_even_with_pinned_mobility_seed(self):
        """A pinned mobility seed must not collapse replications onto one
        trace — it only pins the *base* of the per-rep derivation."""
        spec = tiny_scenario(shared_trace=False)
        pinned = tiny_scenario(
            shared_trace=False,
            mobility=MobilitySpec(spec.mobility.kind, spec.mobility.params, seed=5),
        )
        assert pinned.build_trace(0).contacts != pinned.build_trace(1).contacts
        # and the base is reproducible: same pinned seed, same rep, same trace
        assert pinned.build_trace(1).contacts == pinned.build_trace(1).contacts

    def test_run_executes_grid(self):
        result = tiny_scenario().run()
        # 2 protocols × 2 loads × 2 replications
        assert len(result) == 8
        assert result.loads() == [2, 4]


class TestSurrogateSpecKeys:
    """The hybrid-engine keys: engine, surrogate_check/tolerance/reference."""

    def ode_scenario(self, **overrides) -> ScenarioSpec:
        kwargs = dict(
            engine="ode",
            surrogate_tolerance=0.2,
            surrogate_reference=MobilitySpec(
                "poisson",
                {"num_nodes": 12, "beta": 5e-4, "horizon": 20_000.0, "duration": 40.0},
            ),
            mobility=MobilitySpec(
                "analytic", {"num_nodes": 5000, "beta": 1e-7, "horizon": 1e6}
            ),
            protocols=(ProtocolSpec("pure"),),
        )
        kwargs.update(overrides)
        return tiny_scenario(**kwargs)

    def test_engine_keys_round_trip(self):
        spec = self.ode_scenario(surrogate_check=False)
        data = json.loads(spec.to_json())
        assert data["engine"] == "ode"
        assert data["surrogate_check"] is False
        assert data["surrogate_tolerance"] == 0.2
        assert data["surrogate_reference"]["kind"] == "poisson"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_defaults(self):
        spec = tiny_scenario()
        assert spec.engine == "des"
        assert spec.surrogate_check is True
        assert spec.surrogate_tolerance == 0.10
        assert spec.surrogate_reference is None
        assert "surrogate_reference" not in spec.to_dict()

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            tiny_scenario(engine="quantum")

    def test_bad_tolerance_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="surrogate_tolerance"):
                tiny_scenario(surrogate_tolerance=bad)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError, match="surrogate_reference"):
            tiny_scenario(surrogate_reference={"kind": "poisson"})

    def test_sweep_config_carries_engine(self):
        assert self.ode_scenario().sweep_config().sim.engine == "ode"

    def test_ode_run_skips_gate_when_disabled(self):
        result = self.ode_scenario(
            surrogate_check=False,
            workload=WorkloadSpec(loads=(2,), replications=2),
        ).run()
        assert len(result) == 2
        assert result.surrogate_report is None
        for run in result.runs:
            assert run.success


class TestBufferContentionSpec:
    """Heterogeneous capacities and drop policies as scenario inputs."""

    def test_drop_policy_round_trip(self):
        spec = tiny_scenario(drop_policy="drop-oldest")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert json.loads(spec.to_json())["drop_policy"] == "drop-oldest"

    def test_per_node_capacity_round_trip(self):
        spec = tiny_scenario(
            buffer_capacity=(2, 2, 2, 2, 8, 8, 8, 8),
            bundle_tx_time=(100.0,) * 4 + (50.0,) * 4,
        )
        loaded = ScenarioSpec.from_json(spec.to_json())
        assert loaded == spec
        assert loaded.buffer_capacity == (2, 2, 2, 2, 8, 8, 8, 8)
        # on-disk form is a plain JSON list
        assert json.loads(spec.to_json())["buffer_capacity"] == [2, 2, 2, 2, 8, 8, 8, 8]

    def test_json_list_loads_as_tuple(self):
        data = tiny_scenario().to_dict()
        data["buffer_capacity"] = [1, 2, 3, 4, 5, 6, 7, 8]
        spec = ScenarioSpec.from_dict(data)
        assert spec.buffer_capacity == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_unknown_policy_rejected(self):
        data = tiny_scenario().to_dict()
        data["drop_policy"] = "fifo"
        with pytest.raises(ValueError, match="unknown drop policy"):
            ScenarioSpec.from_dict(data)

    def test_bad_per_node_capacity_rejected(self):
        with pytest.raises(ValueError, match="buffer_capacity"):
            tiny_scenario(buffer_capacity=(2, 0))

    def test_sweep_config_threads_policy_and_heterogeneity(self):
        spec = tiny_scenario(
            buffer_capacity=(3,) * 8, drop_policy="drop-random"
        )
        cfg = spec.sweep_config()
        assert cfg.sim.buffer_capacity == (3,) * 8
        assert cfg.sim.drop_policy == "drop-random"

    def test_heterogeneous_run_executes(self):
        result = tiny_scenario(
            buffer_capacity=(1, 1, 1, 1, 4, 4, 4, 4), drop_policy="drop-oldest"
        ).run()
        assert len(result) == 8

    def test_default_policy_spec_equals_pre_policy_spec(self):
        """Specs without the new keys behave exactly as before."""
        data = tiny_scenario().to_dict()
        del data["drop_policy"]
        spec = ScenarioSpec.from_dict(data)
        assert spec.drop_policy == "reject"
        assert spec.run().runs == tiny_scenario().run().runs


class TestFailurePolicyKeys:
    """The fault-tolerance keys: retries, retry_backoff, cell_timeout, on_error."""

    def test_round_trip(self):
        spec = tiny_scenario(
            retries=2, retry_backoff=0.1, cell_timeout=30.0, on_error="keep-going"
        )
        data = json.loads(spec.to_json())
        assert data["retries"] == 2
        assert data["retry_backoff"] == 0.1
        assert data["cell_timeout"] == 30.0
        assert data["on_error"] == "keep-going"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_defaults(self):
        spec = tiny_scenario()
        assert spec.retries == 0
        assert spec.retry_backoff == 0.5
        assert spec.cell_timeout is None
        assert spec.on_error == "abort"

    def test_failure_policy_mirrors_spec(self):
        policy = tiny_scenario(
            retries=3, retry_backoff=0.2, cell_timeout=5.0, on_error="keep-going"
        ).failure_policy()
        assert policy.retries == 3
        assert policy.backoff == 0.2
        assert policy.cell_timeout == 5.0
        assert policy.on_error == "keep-going"

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"retries": -1}, "retries"),
            ({"retry_backoff": -0.5}, "backoff"),
            ({"cell_timeout": 0.0}, "cell_timeout"),
            ({"on_error": "shrug"}, "on_error"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            tiny_scenario(**kwargs)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            tiny_scenario().run(resume=True)

    def test_run_with_checkpoint_then_resume(self, tmp_path):
        camp = tmp_path / "camp"
        spec = tiny_scenario()
        first = spec.run(checkpoint=camp)
        assert (camp / "journal.jsonl").exists()
        resumed = spec.run(checkpoint=camp, resume=True)
        assert repr(resumed.runs) == repr(first.runs)  # restored, bit-identical

    def test_rerun_without_resume_refused(self, tmp_path):
        from repro.core.checkpoint import CheckpointError

        camp = tmp_path / "camp"
        spec = tiny_scenario()
        spec.run(checkpoint=camp)
        with pytest.raises(CheckpointError, match="--resume"):
            spec.run(checkpoint=camp)


class TestFaultSpecKeys:
    """The disruption-model key: a FaultSpec riding on the scenario."""

    def _faults(self):
        from repro.faults import FaultSpec

        return FaultSpec(
            churn_rate=2e-4,
            mean_downtime=1000.0,
            state_loss="all",
            contact_drop_prob=0.05,
        )

    def test_round_trip(self):
        spec = tiny_scenario(faults=self._faults())
        data = json.loads(spec.to_json())
        assert data["faults"]["churn_rate"] == 2e-4
        assert data["faults"]["state_loss"] == "all"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_absent_by_default(self):
        spec = tiny_scenario()
        assert spec.faults is None
        assert "faults" not in spec.to_dict()

    def test_sweep_config_carries_faults(self):
        spec = tiny_scenario(faults=self._faults())
        assert spec.sweep_config().sim.faults == self._faults()
        assert spec.sweep_config().sim.active_faults == self._faults()

    def test_unknown_fault_key_rejected(self):
        data = tiny_scenario(faults=self._faults()).to_dict()
        data["faults"]["blast_radius"] = 3
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioSpec.from_dict(data)

    def test_bad_fault_values_rejected(self):
        data = tiny_scenario(faults=self._faults()).to_dict()
        data["faults"]["contact_drop_prob"] = 1.5
        with pytest.raises(ValueError, match="contact_drop_prob"):
            ScenarioSpec.from_dict(data)

    def test_ode_engine_rejects_faults(self):
        """Satellite acceptance: the analytic surrogate has no node
        identity to crash — a faulted ode scenario must fail fast."""
        with pytest.raises(ValueError, match="unsupported by the surrogate"):
            tiny_scenario(
                engine="ode", surrogate_check=False, faults=self._faults()
            )

    def test_ode_engine_accepts_trivial_faults(self):
        from repro.faults import FaultSpec

        spec = tiny_scenario(
            engine="ode", surrogate_check=False, faults=FaultSpec()
        )
        assert spec.faults == FaultSpec()

    def test_faulted_run_populates_churn(self):
        result = tiny_scenario(faults=self._faults()).run()
        assert len(result) == 8
        assert all(r.churn for r in result.runs)
        assert all("crashed" in r.removals for r in result.runs)



NAN = math.nan
_POISSON = {"kind": "poisson", "params": {"num_nodes": 6, "horizon": 5_000.0}}
_INTERVAL = tiny_scenario().mobility.to_dict()

#: case → (the field its error must name, top-level scenario-JSON keys that
#: plant a hostile value in it): NaNs, which JSON accepts as a literal, and
#: wrong-typed or non-finite values that used to run as plausible nonsense
HOSTILE_VALUES = {
    "ttl_base": ("ttl_base", {"protocols": [{"name": "ec_ttl", "params": {"ttl_base": NAN}}]}),
    "ttl_step": ("ttl_step", {"protocols": [{"name": "ec_ttl", "params": {"ttl_step": NAN}}]}),
    "buffer_capacity": ("buffer_capacity", {"buffer_capacity": NAN}),
    "bundle_tx_time": ("bundle_tx_time", {"bundle_tx_time": NAN}),
    "backoff": ("backoff", {"retry_backoff": NAN}),
    "cell_timeout": ("cell_timeout", {"cell_timeout": NAN}),
    "churn_rate": ("churn_rate", {"faults": {"churn_rate": NAN, "mean_downtime": 100.0}}),
    "beta": (
        "beta",
        {"mobility": {**_POISSON, "params": {**_POISSON["params"], "beta": NAN}}},
    ),
    "duration": (
        "duration",
        {"mobility": {**_POISSON, "params": {**_POISSON["params"], "duration": NAN}}},
    ),
    # a truthy string switched anti-packets on (and the label with them)
    "anti_packets_string": (
        "anti_packets",
        {"protocols": [{"name": "pq", "params": {"anti_packets": "no"}}]},
    ),
    "shared_trace_string": ("shared_trace", {"shared_trace": "false"}),
    # fractional buffers ran between their neighbours' occupancies, and a
    # per-node fraction or bool was truncated by int()
    "buffer_capacity_fraction": ("buffer_capacity", {"buffer_capacity": 2.5}),
    "buffer_capacity_per_node_fraction": ("buffer_capacity", {"buffer_capacity": [2.7] * 8}),
    "buffer_capacity_per_node_bool": ("buffer_capacity", {"buffer_capacity": [True] * 8}),
    # every contact became zero-transfer: 0 delivered, no error
    "bundle_tx_time_infinite": ("bundle_tx_time", {"bundle_tx_time": math.inf}),
    "loads_bool": ("loads", {"workload": {"loads": [True]}}),
    "replications_string": ("replications", {"workload": {"loads": [2], "replications": "2"}}),
    "num_nodes_fraction": (
        "num_nodes",
        {"mobility": {**_INTERVAL, "params": {**_INTERVAL["params"], "num_nodes": 8.5}}},
    ),
    # a bool or a fraction ran as a seed or a retry count, and a string or
    # NaN seed failed at trace build with an error that blamed the mobility
    "seed_bool": ("seed", {"seed": True}),
    "seed_string": ("seed", {"seed": "7"}),
    "seed_fraction": ("seed", {"seed": 7.5}),
    "seed_nan": ("seed", {"seed": NAN}),
    "mobility_seed_string": ("MobilitySpec.seed", {"mobility": {**_INTERVAL, "seed": "7"}}),
    "retries_bool": ("retries", {"retries": True}),
    "retries_fraction": ("retries", {"retries": 1.5}),
    # a fractional EC threshold put every TTL off the ttl_step grid
    "ec_threshold_fraction": (
        "ec_threshold",
        {"protocols": [{"name": "ec_ttl", "params": {"ec_threshold": 2.5}}]},
    ),
    "min_ec_evict_fraction": (
        "min_ec_evict",
        {"protocols": [{"name": "ec_ttl", "params": {"min_ec_evict": 0.5}}]},
    ),
    # these failed with a bare TypeError that named no field
    "surrogate_tolerance_string": ("surrogate_tolerance", {"surrogate_tolerance": "0.1"}),
    "backoff_string": ("backoff", {"retry_backoff": "1"}),
    "cell_timeout_string": ("cell_timeout", {"cell_timeout": "5"}),
    "params_list": ("params", {"protocols": [{"name": "pure", "params": [1]}]}),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_VALUES))
def test_nan_parameter_is_refused_before_any_cell_runs(case, monkeypatch):
    """A NaN or another hostile value fails with the field's name before
    any cell runs, on either DES tier."""
    from repro.core.simulation import Simulation
    from repro.core.sweepkernel import SweepKernel

    field, planted = HOSTILE_VALUES[case]
    ran = []
    monkeypatch.setattr(Simulation, "run", lambda sim: ran.append("event"))
    monkeypatch.setattr(SweepKernel, "run", lambda kern, horizon: ran.append("soa"))
    for kernel in ("auto", "event"):
        data = {**tiny_scenario(kernel=kernel).to_dict(), **planted}
        # json accepts NaN and Infinity literals, so they reach every numeric field
        text = json.dumps(data)
        with pytest.raises(ValueError, match=field):
            spec = ScenarioSpec.from_json(text)
            spec.build_protocols()
            spec.build_trace()
            spec.run()
    assert ran == []
