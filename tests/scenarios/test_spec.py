"""Scenario specs: JSON round-trips, validation, mobility registry."""

import copy
import dataclasses
import functools
import json
import math
import operator
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
        with pytest.raises(ValueError, match="unknown FaultSpec key"):
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
            engine="ode",
            surrogate_check=False,
            faults=FaultSpec(),
            protocols=(ProtocolSpec("pure"),),  # the surrogate refuses ttl at load
        )
        assert spec.faults == FaultSpec()

    def test_faulted_run_populates_churn(self):
        result = tiny_scenario(faults=self._faults()).run()
        assert len(result) == 8
        assert all(r.churn for r in result.runs)
        assert all("crashed" in r.removals for r in result.runs)



NAN = math.nan
INF = math.inf
_POISSON = {"kind": "poisson", "params": {"num_nodes": 6, "horizon": 5_000.0}}
_INTERVAL = tiny_scenario().mobility.to_dict()
_CAMPUS = {"kind": "campus", "params": {"num_nodes": 8, "horizon": 90_000.0}}
_RWP = {"kind": "rwp", "params": {"num_nodes": 8, "horizon": 2_000.0}}
_CLASSIC_RWP = {"kind": "classic_rwp", "params": {"num_nodes": 8, "horizon": 2_000.0}}
_ANALYTIC = {"kind": "analytic", "params": {"num_nodes": 8, "beta": 1e-4, "horizon": 2_000.0}}


def _mobility(base, **params):
    return {"mobility": {**base, "params": {**base["params"], **params}}}


def _campus(**params):
    return _mobility(_CAMPUS, **params)


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
    # these failed only at build, with a message that named no field
    "ttl_string": ("ttl must be", {"protocols": [{"name": "ttl", "params": {"ttl": "300"}}]}),
    "p_string": ("p must be", {"protocols": [{"name": "pq", "params": {"p": "1"}}]}),
    "max_interval_string": (
        "max_interval must be",
        {"mobility": {**_INTERVAL, "params": {**_INTERVAL["params"], "max_interval": "400"}}},
    ),
    "beta_string": (
        "beta must be",
        {"mobility": {**_POISSON, "params": {**_POISSON["params"], "beta": "0.001"}}},
    ),
    "horizon_string": (
        "horizon must be",
        {"mobility": {"kind": "rwp", "params": {"num_nodes": 8, "horizon": "2000"}}},
    ),
    # a truthy string switched origin expiry on
    "expire_origin_string": (
        "expire_origin must be",
        {"protocols": [{"name": "ttl", "params": {"expire_origin": "no"}}]},
    ),
    # int() and float() turned these into a crash of another node
    "downtime_node_fraction": (
        "downtime_schedule node",
        {"faults": {"downtime_schedule": [[2.7, 0, 100]]}},
    ),
    "downtime_node_bool": (
        "downtime_schedule node",
        {"faults": {"downtime_schedule": [[True, 0, 100]]}},
    ),
    "downtime_time_string": (
        "downtime_schedule down_at",
        {"faults": {"downtime_schedule": [[1, "5", "300"]]}},
    ),
    # a truthy string switched the handout burst on (more contacts), and
    # "no" loaded as a diurnal switch
    "handout_burst_string": ("handout_burst must be", _campus(handout_burst="false")),
    "diurnal_string": ("diurnal must be", _campus(diurnal="no")),
    # NaN failed converting to an int, a string at a comparison, neither
    # naming the field
    "campus_horizon_nan": ("horizon must be", _campus(horizon=NAN)),
    "campus_horizon_string": ("horizon must be", _campus(horizon="90000")),
    # a NaN phase made every contact a night contact, and a NaN burst
    # probability gave every pair a burst contact
    "day_phase_nan": ("day_phase must be", _campus(day_phase=NAN)),
    "burst_pair_prob_nan": (
        "burst_pair_prob must be",
        _campus(handout_burst=True, burst_pair_prob=NAN),
    ),
    # these ran, labelled "L=2.5" and "L=True"
    "initial_tokens_fraction": (
        "initial_tokens must be",
        {"protocols": [{"name": "spray_wait", "params": {"initial_tokens": 2.5}}]},
    ),
    "initial_tokens_bool": (
        "initial_tokens must be",
        {"protocols": [{"name": "spray_wait", "params": {"initial_tokens": True}}]},
    ),
    # age_unit <= 0 let NaN through, and the run aged nothing
    "age_unit_nan": (
        "age_unit must be",
        {"protocols": [{"name": "prophet", "params": {"age_unit": NAN}}]},
    ),
    # an infinity passed the > 0 guards: both RWP models never returned
    "rwp_horizon_inf": ("horizon must be", _mobility(_RWP, horizon=INF)),
    "classic_rwp_horizon_inf": ("horizon must be", _mobility(_CLASSIC_RWP, horizon=INF)),
    # these overflowed converting to an int, naming no field
    "poisson_horizon_inf": ("horizon must be", _mobility(_POISSON, horizon=INF)),
    "poisson_beta_inf": ("beta must be", _mobility(_POISSON, beta=INF)),
    "campus_horizon_inf": ("horizon must be", _campus(horizon=INF)),
    "interval_max_duration_inf": (
        "max_duration must be",
        _mobility(_INTERVAL, max_duration=INF),
    ),
    "rwp_area_side_inf": ("area_side must be", _mobility(_RWP, area_side=INF)),
    "rwp_max_pause_inf": ("max_pause must be", _mobility(_RWP, max_pause=INF)),
    "rwp_max_travel_time_inf": (
        "max_travel_time must be",
        _mobility(_RWP, max_travel_time=INF),
    ),
    "classic_rwp_max_pause_inf": (
        "max_pause must be",
        _mobility(_CLASSIC_RWP, max_pause=INF),
    ),
    # this failed building a contact at [inf, inf)
    "interval_max_interval_inf": (
        "max_interval must be",
        _mobility(_INTERVAL, max_interval=INF),
    ),
    # the analytic model stored a NaN rate or an infinite horizon
    "analytic_beta_nan": ("beta must be", _mobility(_ANALYTIC, beta=NAN)),
    "analytic_horizon_inf": ("horizon must be", _mobility(_ANALYTIC, horizon=INF)),
    # a fraction built "analytic(n=2.5, ...)", and a string failed at a
    # comparison naming no field
    "analytic_num_nodes_fraction": ("num_nodes must be", _mobility(_ANALYTIC, num_nodes=2.5)),
    "analytic_num_nodes_string": ("num_nodes must be", _mobility(_ANALYTIC, num_nodes="100")),
    "analytic_num_nodes_bool": ("num_nodes must be", _mobility(_ANALYTIC, num_nodes=True)),
    # an RWP "engine" key selected the scalar contact extractor, which is
    # gone: a spec that still sets it fails instead of loading
    "rwp_engine": ("unknown RWPConfig parameter\\(s\\): engine", _mobility(_RWP, engine="exact")),
    "classic_rwp_engine": (
        "ClassicRWPConfig parameter\\(s\\): engine",
        _mobility(_CLASSIC_RWP, engine="fast"),
    ),
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


#: case → (pattern the load error must match, top-level keys that plant
#: the hostile value): each of these once loaded, or failed with an error
#: that named no key, and now fails at load naming its dotted key
HOSTILE_AT_LOAD = {
    # iterated as a schedule: a bare TypeError, 'int' object is not iterable
    "downtime_schedule_int": (
        r"faults\.downtime_schedule must be a list, got int",
        {"faults": {"downtime_schedule": 5}},
    ),
    # iterated as a string: "ProtocolSpec spec must be a mapping, got str"
    "protocols_string": (r"^protocols must be a list, got str", {"protocols": "pure"}),
    # refused under FailurePolicy's field name, "backoff must be a number"
    "retry_backoff_string": (r"^retry_backoff must be a number", {"retry_backoff": "x"}),
    # these four loaded and failed only once run() started
    "unknown_protocol": (
        r"^protocols\[0\]: unknown protocol 'nonexistent'",
        {"protocols": [{"name": "nonexistent"}]},
    ),
    "bad_protocol_params": (
        r"^protocols\[0\]: ttl must be",
        {"protocols": [{"name": "ttl", "params": {"ttl": "x"}}]},
    ),
    "unknown_mobility_kind": (
        r"^mobility: unknown mobility kind 'warp'",
        {"mobility": {"kind": "warp"}},
    ),
    "unknown_surrogate_reference_kind": (
        r"^surrogate_reference: unknown mobility kind 'warp'",
        {"surrogate_reference": {"kind": "warp"}},
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_AT_LOAD))
def test_hostile_spec_fails_at_load_naming_its_key(case):
    pattern, planted = HOSTILE_AT_LOAD[case]
    text = json.dumps({**tiny_scenario().to_dict(), **planted})
    with pytest.raises(ValueError, match=pattern):
        ScenarioSpec.from_json(text)


def test_codec_omits_none_and_empty_mappings_only():
    from repro.faults import FaultSpec

    data = tiny_scenario(faults=FaultSpec()).to_dict()
    for key in ("cell_timeout", "surrogate_reference"):
        assert key not in data
    assert "params" not in data["protocols"][0]
    # an empty tuple is not a mapping: the fault encoding keeps its key
    assert data["faults"]["downtime_schedule"] == []


def test_codec_writes_every_field():
    """Each field of every spec reaches the encoding, in declaration
    order, so a codec that skipped one would lose a knob from scenario
    files."""
    from repro.faults import FaultSpec

    faults = FaultSpec(
        churn_rate=1e-4,
        mean_downtime=50.0,
        downtime_schedule=((1, 5.0, 9.0),),
        contact_drop_prob=0.1,
        interrupt_prob=0.2,
        transfer_failure_prob=0.3,
        state_loss="all",
    )
    spec = tiny_scenario(
        mobility=MobilitySpec("interval", {"num_nodes": 8}, seed=4),
        cell_timeout=9.0,
        surrogate_reference=MobilitySpec("poisson", {"num_nodes": 6}),
        faults=faults,
    )
    data = spec.to_dict()
    for block, value in (
        (data, spec),
        (data["mobility"], spec.mobility),
        (data["protocols"][1], spec.protocols[1]),
        (data["workload"], spec.workload),
        (data["faults"], faults),
    ):
        assert list(block) == [f.name for f in dataclasses.fields(value) if f.init]
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_simulation_config_fields_are_scenario_fields():
    """The spec builds its SimulationConfig from the config's own field
    list, so a config knob with no spec field breaks every spec."""
    from repro.core.simulation import SimulationConfig

    spec_fields = {f.name for f in dataclasses.fields(ScenarioSpec) if f.init}
    assert {f.name for f in dataclasses.fields(SimulationConfig)} <= spec_fields
    spec = tiny_scenario(drop_policy="drop-oldest", record_occupancy=True, kernel="event")
    assert spec.sweep_config().sim == SimulationConfig(
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(SimulationConfig)}
    )


# ------------------------------------------------------------------ fuzzing

_ROOT = Path(__file__).resolve().parents[2]
#: the example and bench scenario documents the fuzzer mutates
SPEC_DOCUMENTS = [
    json.loads(path.read_text())
    for pattern in ("examples/scenarios/*.json", "bench/workloads/*.json")
    for path in sorted(_ROOT.glob(pattern))
]
FUZZ_VALUES = [None, "", "x", -1, 2.5, NAN, INF, [], {}, [1], True, {"k": 1}]


def _node_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _node_paths(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """An example or bench spec with one to three mutations at any depth:
    a value replaced by a hostile one, a key deleted, an unknown key added."""
    doc = copy.deepcopy(draw(st.sampled_from(SPEC_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_node_paths(doc))))
        node = functools.reduce(operator.getitem, path, doc)
        parent = functools.reduce(operator.getitem, path[:-1], doc) if path else None
        op = draw(st.sampled_from(("replace", "delete", "add")))
        if op == "replace" and path:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        elif op == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == "add" and isinstance(node, dict):
            node["unknown_key"] = 1
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_fuzzed_spec_is_refused_by_name_or_round_trips(doc):
    """A mutated spec fails with a ValueError or KeyError — never a
    TypeError, AttributeError or IndexError — or it loads, and its
    encoding is a fixed point of load + re-encode."""
    try:
        spec = ScenarioSpec.from_dict(doc)
    except (ValueError, KeyError):
        return
    text = spec.to_json()
    assert ScenarioSpec.from_json(text).to_json() == text
