"""Experiment execution: scenario tables, mobility cache, sweep cache.

The paper's figures reuse a handful of (mobility × protocol family) sweeps.
Each is described *declaratively*: :data:`MOBILITY_PRESETS` names the
mobility inputs, :data:`PROTOCOL_FAMILIES` the protocol sets, and
:data:`SWEEP_FAMILIES` pairs them. The runner materialises a
:class:`~repro.scenarios.ScenarioSpec` per family, executes it once per
(scale, seed) on its execution backend, and hands cached
:class:`~repro.core.results.SweepResult` objects to the figure builders.

Adding a new study is data, not code: register a mobility kind
(:func:`repro.scenarios.register_mobility`) if needed, then add entries to
the tables below — no ``if``/``elif`` chain to extend.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.core.executors import Executor
from repro.core.results import SweepResult
from repro.core.sweep import run_sweep
from repro.core.workload import PAPER_LOADS, PAPER_REPLICATIONS
from repro.mobility.contact import ContactTrace
from repro.scenarios import MobilitySpec, ProtocolSpec, ScenarioSpec, WorkloadSpec


@dataclass(frozen=True)
class Scale:
    """Sweep grid size."""

    name: str
    loads: tuple[int, ...]
    replications: int


SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", (5, 15), 1),
    "quick": Scale("quick", (5, 20, 35, 50), 3),
    "paper": Scale("paper", PAPER_LOADS, PAPER_REPLICATIONS),
}

# ----------------------------------------------------------- protocol families

#: label constants used across figure definitions (must match config labels)
PQ_LABEL = "P-Q epidemic (P=1, Q=1)"
TTL_LABEL = "Epidemic with TTL=300"
EC_LABEL = "Epidemic with EC"
IMMUNITY_LABEL = "Epidemic with immunity"
DYN_TTL_LABEL = "Epidemic with dynamic TTL (x2)"
EC_TTL_LABEL = "Epidemic with EC+TTL (thr=8)"
CUMULATIVE_LABEL = "Epidemic with cumulative immunity"

#: Protocol families, as declarative specs (paper parameterisation).
PROTOCOL_FAMILIES: dict[str, tuple[ProtocolSpec, ...]] = {
    "baselines": (
        ProtocolSpec("pq", {"p": 1.0, "q": 1.0}),
        ProtocolSpec("ttl", {"ttl": 300.0}),
        ProtocolSpec("ec"),
        ProtocolSpec("immunity"),
    ),
    "enhanced": (
        ProtocolSpec("ttl", {"ttl": 300.0}),
        ProtocolSpec("dynamic_ttl"),
        ProtocolSpec("ec"),
        ProtocolSpec("ec_ttl"),
        ProtocolSpec("immunity"),
        ProtocolSpec("cumulative_immunity"),
    ),
    "ttl": (
        ProtocolSpec("ttl", {"ttl": 300.0}),
        ProtocolSpec("dynamic_ttl"),
    ),
}

#: Named mobility inputs the paper's figures draw on.
MOBILITY_PRESETS: dict[str, MobilitySpec] = {
    "campus": MobilitySpec("campus"),
    "rwp": MobilitySpec("rwp"),
    "interval400": MobilitySpec("interval", {"max_interval": 400.0}),
    "interval2000": MobilitySpec("interval", {"max_interval": 2000.0}),
}

#: Sweep family → (mobility preset, protocol family).
SWEEP_FAMILIES: dict[str, tuple[str, str]] = {
    "baselines_trace": ("campus", "baselines"),
    "baselines_rwp": ("rwp", "baselines"),
    "enhanced_trace": ("campus", "enhanced"),
    "enhanced_rwp": ("rwp", "enhanced"),
    "ttl_interval400": ("interval400", "ttl"),
    "ttl_interval2000": ("interval2000", "ttl"),
}


class ExperimentRunner:
    """Executes and caches the sweeps behind every registered experiment."""

    def __init__(
        self,
        *,
        scale: str | Scale = "quick",
        seed: int = 7,
        progress: Callable[[str], None] | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.scale = scale if isinstance(scale, Scale) else SCALES[scale]
        self.seed = seed
        self.progress = progress
        self.executor = executor
        self._traces: dict[str, ContactTrace] = {}
        self._sweeps: dict[tuple[str, str], SweepResult] = {}

    # ------------------------------------------------------------- mobility

    def mobility_spec(self, kind: str) -> MobilitySpec:
        """The :class:`MobilitySpec` behind ``kind``.

        Preset names (:data:`MOBILITY_PRESETS`: ``campus``, ``rwp``,
        ``interval400``, ``interval2000``) resolve first; any other string
        is treated as a raw mobility-registry kind with default parameters,
        so registered user mobilities work here with no further wiring.
        """
        preset = MOBILITY_PRESETS.get(kind)
        return preset if preset is not None else MobilitySpec(kind)

    def trace(self, kind: str) -> ContactTrace:
        """The mobility input for ``kind`` (cached).

        Raises:
            KeyError: if ``kind`` is neither a preset nor a registered
                mobility kind.
        """
        if kind not in self._traces:
            self._traces[kind] = self.mobility_spec(kind).build(seed=self.seed)
        return self._traces[kind]

    # --------------------------------------------------------------- sweeps

    def scenario(self, family: str) -> ScenarioSpec:
        """The :class:`ScenarioSpec` for a named sweep family at this
        runner's scale and seed.

        Families: ``baselines_trace``, ``baselines_rwp``,
        ``enhanced_trace``, ``enhanced_rwp``, ``ttl_interval400``,
        ``ttl_interval2000``.
        """
        try:
            mobility_kind, protocol_family = SWEEP_FAMILIES[family]
        except KeyError:
            raise KeyError(
                f"unknown sweep family {family!r}; "
                f"available: {', '.join(sorted(SWEEP_FAMILIES))}"
            ) from None
        return ScenarioSpec(
            name=family,
            mobility=self.mobility_spec(mobility_kind),
            protocols=PROTOCOL_FAMILIES[protocol_family],
            workload=WorkloadSpec(
                loads=self.scale.loads, replications=self.scale.replications
            ),
            seed=self.seed,
        )

    def sweep(self, family: str) -> SweepResult:
        """Run (or fetch) a named (mobility × protocol) sweep."""
        key = (family, self.scale.name)
        if key in self._sweeps:
            return self._sweeps[key]
        spec = self.scenario(family)
        mobility_kind, _ = SWEEP_FAMILIES[family]
        result = run_sweep(
            self.trace(mobility_kind),  # shared with other families of the kind
            spec.build_protocols(),
            spec.sweep_config(),
            executor=self.executor,
            progress=self.progress,
        )
        self._sweeps[key] = result
        return result
