"""Experiment runner: scales, mobility caching, sweep families."""

import pytest

from repro.experiments.runner import (
    MOBILITY_PRESETS,
    PROTOCOL_FAMILIES,
    SCALES,
    SWEEP_FAMILIES,
    ExperimentRunner,
    Scale,
)
from repro.scenarios import MobilitySpec, ScenarioSpec, register_mobility


class TestScales:
    def test_registered_scales(self):
        assert set(SCALES) == {"smoke", "quick", "paper"}
        assert SCALES["paper"].loads == tuple(range(5, 55, 5))
        assert SCALES["paper"].replications == 10
        assert SCALES["smoke"].replications == 1


def _labels(family: str) -> list[str]:
    return [spec.build().label for spec in PROTOCOL_FAMILIES[family]]


class TestProtocolFamilies:
    def test_baselines_match_paper_parameterisation(self):
        labels = _labels("baselines")
        assert "P-Q epidemic (P=1, Q=1)" in labels
        assert "Epidemic with TTL=300" in labels
        assert len(labels) == 4

    def test_enhanced_pairs(self):
        labels = _labels("enhanced")
        assert len(labels) == 6
        assert any("dynamic TTL" in label for label in labels)
        assert any("cumulative" in label for label in labels)

    def test_ttl_family(self):
        assert len(_labels("ttl")) == 2


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(scale="smoke", seed=3)

    def test_scale_by_name_or_object(self):
        assert ExperimentRunner(scale="smoke").scale.name == "smoke"
        custom = Scale("tiny", (5,), 1)
        assert ExperimentRunner(scale=custom).scale is custom

    def test_traces_cached(self, runner):
        assert runner.trace("campus") is runner.trace("campus")
        assert runner.trace("rwp") is runner.trace("rwp")

    def test_trace_kinds(self, runner):
        assert runner.trace("campus").num_nodes == 12
        assert runner.trace("interval400").num_nodes == 20
        assert runner.trace("interval2000").num_nodes == 20
        with pytest.raises(KeyError):
            runner.trace("mars")

    def test_sweep_cached(self, runner):
        a = runner.sweep("ttl_interval400")
        assert runner.sweep("ttl_interval400") is a

    def test_sweep_grid_matches_scale(self, runner):
        sweep = runner.sweep("ttl_interval400")
        # 2 protocols x 2 loads x 1 replication
        assert len(sweep) == 4

    def test_unknown_family(self, runner):
        with pytest.raises(KeyError, match="family"):
            runner.sweep("bogus")

    def test_progress_forwarded(self):
        lines = []
        r = ExperimentRunner(scale="smoke", seed=1, progress=lines.append)
        r.sweep("ttl_interval400")
        assert lines


class TestDeclarativeTables:
    def test_every_family_resolves(self):
        for mobility_kind, protocol_family in SWEEP_FAMILIES.values():
            assert mobility_kind in MOBILITY_PRESETS
            assert protocol_family in PROTOCOL_FAMILIES

    def test_scenario_spec_for_family(self):
        runner = ExperimentRunner(scale="smoke", seed=3)
        spec = runner.scenario("baselines_trace")
        assert isinstance(spec, ScenarioSpec)
        assert spec.mobility == MobilitySpec("campus")
        assert spec.workload.loads == SCALES["smoke"].loads
        assert spec.seed == 3
        # the spec round-trips, so every built-in family is file-shippable
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_scenario_unknown_family(self):
        with pytest.raises(KeyError, match="family"):
            ExperimentRunner(scale="smoke").scenario("bogus")

    def test_registered_mobility_is_first_class(self):
        from repro.mobility.contact import ContactTrace

        @register_mobility("runner-test-blip")
        def _blip(*, seed: int = 0) -> ContactTrace:
            return ContactTrace.from_tuples(
                [(10.0 + seed, 60.0 + seed, 0, 1)], 2, horizon=1_000.0
            )

        runner = ExperimentRunner(scale="smoke", seed=5)
        trace = runner.trace("runner-test-blip")
        assert trace[0].start == 15.0
        assert runner.trace("runner-test-blip") is trace  # cached
