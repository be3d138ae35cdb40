"""Declarative scenario specifications.

A scenario is everything a sweep needs, as plain data: *which mobility*
(by registry name + parameters), *which protocols* (by registry name +
parameters), *which grid* (loads × replications), and the mechanism
constants. Specs round-trip through JSON, so a scenario can live in a
file, ship to a cluster, or be diffed in a code review::

    spec = ScenarioSpec(
        name="campus-baselines",
        mobility=MobilitySpec("campus"),
        protocols=(ProtocolSpec("pq", {"p": 1.0, "q": 1.0}), ProtocolSpec("ec")),
        workload=WorkloadSpec(loads=(5, 25, 50), replications=3),
        seed=7,
    )
    spec.save("scenario.json")
    result = ScenarioSpec.load("scenario.json").run(jobs=4)

The **mobility registry** is the extension point that makes user-defined
mobility models first-class: ``register_mobility("mine")(builder)`` and
``MobilitySpec(kind="mine", params={...})`` immediately works everywhere a
built-in does — the experiment runner, scenario files, the CLI.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Mapping
from typing import Any, TextIO

from repro.codec import Encodable
from repro.core.checkpoint import CheckpointJournal
from repro.core.executors import Executor, FailurePolicy
from repro.core.protocols.registry import ProtocolConfig, make_protocol_config
from repro.core.results import SweepResult
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, TraceFactory
from repro.core.workload import PAPER_LOADS, PAPER_REPLICATIONS
from repro.des.rng import derive_seed
from repro.faults import FaultSpec
from repro.mobility.contact import ContactTrace
from repro.validation import require_bool, require_int, require_nonneg, require_real

# --------------------------------------------------------------------------
# mobility registry

#: A mobility builder: ``builder(seed=..., **params) -> ContactTrace``.
MobilityBuilder = Callable[..., ContactTrace]

_MOBILITY_REGISTRY: dict[str, MobilityBuilder] = {}


def register_mobility(
    name: str, builder: MobilityBuilder | None = None
) -> Callable[[MobilityBuilder], MobilityBuilder] | MobilityBuilder:
    """Register a mobility builder under ``name``.

    Usable directly (``register_mobility("mine", build_mine)``) or as a
    decorator (``@register_mobility("mine")``). The builder must accept a
    ``seed`` keyword plus its model parameters and return a
    :class:`~repro.mobility.contact.ContactTrace`.

    Raises:
        ValueError: if the name is already taken by a different builder.
    """

    def _register(fn: MobilityBuilder) -> MobilityBuilder:
        existing = _MOBILITY_REGISTRY.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"mobility kind {name!r} already registered")
        _MOBILITY_REGISTRY[name] = fn
        return fn

    if builder is not None:
        return _register(builder)
    return _register


def mobility_names() -> list[str]:
    """All registered mobility kinds, sorted."""
    return sorted(_MOBILITY_REGISTRY)


def _mobility_builder(kind: str) -> MobilityBuilder:
    try:
        return _MOBILITY_REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"unknown mobility kind {kind!r}; available: {', '.join(mobility_names())}"
        ) from None


def build_mobility(kind: str, *, seed: int = 0, **params: Any) -> ContactTrace:
    """Build a trace from a registered mobility kind.

    Raises:
        KeyError: for an unknown kind (message lists what is available).
        ValueError: for parameters the kind does not accept.
    """
    builder = _mobility_builder(kind)
    try:
        return builder(seed=seed, **params)
    except TypeError as exc:
        # Builders forward **params into config dataclasses; surface an
        # unknown/extra parameter as a value error, not a call-site bug.
        raise ValueError(f"bad parameters for mobility {kind!r}: {exc}") from exc


def _config_from_params(cls: type[Any], params: Mapping[str, Any]) -> Any:
    """Instantiate a config dataclass, rejecting unknown parameter names."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} parameter(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return cls(**params)


def _register_builtins() -> None:
    from repro.mobility.interval import IntervalScenarioConfig, generate_interval_scenario
    from repro.mobility.rwp import (
        ClassicRWP,
        ClassicRWPConfig,
        RWPConfig,
        SubscriberPointRWP,
    )
    from repro.mobility.synthetic import CampusTraceConfig, CampusTraceGenerator
    from repro.mobility.trace_file import read_contact_trace, read_haggle_trace

    @register_mobility("campus")
    def _campus(*, seed: int = 0, **params: Any) -> ContactTrace:
        cfg = _config_from_params(CampusTraceConfig, params)
        return CampusTraceGenerator(cfg, seed=seed).generate()

    @register_mobility("rwp")
    def _rwp(*, seed: int = 0, **params: Any) -> ContactTrace:
        cfg = _config_from_params(RWPConfig, params)
        return SubscriberPointRWP(cfg, seed=seed).generate()

    @register_mobility("classic_rwp")
    def _classic_rwp(*, seed: int = 0, **params: Any) -> ContactTrace:
        cfg = _config_from_params(ClassicRWPConfig, params)
        return ClassicRWP(cfg, seed=seed).generate()

    @register_mobility("interval")
    def _interval(*, seed: int = 0, **params: Any) -> ContactTrace:
        cfg = _config_from_params(IntervalScenarioConfig, params)
        return generate_interval_scenario(cfg, seed=seed)

    @register_mobility("poisson")
    def _poisson(*, seed: int = 0, **params: Any) -> ContactTrace:
        from repro.mobility.poisson import PoissonContactConfig, generate_poisson_trace

        cfg = _config_from_params(PoissonContactConfig, params)
        return generate_poisson_trace(cfg, seed=seed)

    @register_mobility("analytic")
    def _analytic(
        *,
        seed: int = 0,
        num_nodes: int = 0,
        beta: float = 0.0,
        horizon: float = 0.0,
        name: str = "",
        **extra: Any,
    ) -> ContactTrace:
        from repro.analytic.surrogate import make_analytic_model

        del seed  # the model is a rate, not a realisation
        if extra:
            raise ValueError(
                f"unknown analytic parameter(s): {', '.join(sorted(extra))}"
            )
        return make_analytic_model(
            num_nodes=num_nodes, beta=beta, horizon=horizon, name=name
        )

    @register_mobility("trace_file")
    def _trace_file(
        *, seed: int = 0, path: str = "", format: str = "canonical", **extra: Any
    ) -> ContactTrace:
        del seed  # on-disk traces are deterministic
        if extra:
            raise ValueError(
                f"unknown trace_file parameter(s): {', '.join(sorted(extra))}"
            )
        if not path:
            raise ValueError("trace_file mobility requires a 'path' parameter")
        if format == "canonical":
            return read_contact_trace(path)
        if format == "haggle":
            return read_haggle_trace(path)
        raise ValueError(f"unknown trace format {format!r} (canonical or haggle)")


_register_builtins()


#: Mobility kinds a campaign directory does not store traces for: reading
#: a trace file already is a load, and the analytic model has no contacts.
UNSTORED_MOBILITY_KINDS = frozenset({"trace_file", "analytic"})


# --------------------------------------------------------------------------
# spec dataclasses

def _check_params(cls_name: str, params: Any) -> dict[str, Any]:
    if not isinstance(params, Mapping):
        raise ValueError(f"{cls_name}.params must be a mapping")
    bad = [k for k in params if not isinstance(k, str)]
    if bad:
        raise ValueError(f"{cls_name}.params keys must be strings, got {bad!r}")
    return dict(params)


@dataclass(frozen=True)
class MobilitySpec(Encodable):
    """A mobility input, by registry kind + parameters.

    Attributes:
        kind: Registered mobility kind (``campus``, ``rwp``,
            ``classic_rwp``, ``interval``, ``trace_file``, or any kind added
            via :func:`register_mobility`); an unknown kind fails at
            construction.
        params: Keyword parameters for the kind's builder (e.g. the fields
            of :class:`~repro.mobility.rwp.RWPConfig` for ``rwp``). The
            builder checks them when it builds the first trace, before
            any cell runs.
        seed: Fixed generation seed; ``None`` (default) inherits the seed
            the caller builds with (for a scenario: the scenario seed).
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        _mobility_builder(self.kind)
        object.__setattr__(self, "params", _check_params("MobilitySpec", self.params))
        if self.seed is not None:
            require_int("MobilitySpec.seed", self.seed, 0)

    def build(self, *, seed: int = 0) -> ContactTrace:
        """Build the trace (``self.seed``, when set, wins over ``seed``)."""
        effective = self.seed if self.seed is not None else seed
        return build_mobility(self.kind, seed=effective, **self.params)


@dataclass(frozen=True)
class ProtocolSpec(Encodable):
    """A protocol under test, by registry name + parameter overrides.

    Construction builds the configuration once, so an unknown name or a
    bad parameter fails when the spec is made, not when a cell runs.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _check_params("ProtocolSpec", self.params))
        self.build()

    def build(self) -> ProtocolConfig:
        """Instantiate the protocol configuration from the registry."""
        try:
            return make_protocol_config(self.name, **self.params)
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for protocol {self.name!r}: {exc}"
            ) from exc


@dataclass(frozen=True)
class WorkloadSpec(Encodable):
    """The sweep grid: offered loads × replications (paper defaults)."""

    loads: tuple[int, ...] = PAPER_LOADS
    replications: int = PAPER_REPLICATIONS

    def __post_init__(self) -> None:
        for x in self.loads:
            # an integral float (5.0) is a load; a bool, a string, a
            # fraction or a NaN is not
            if isinstance(x, bool) or not (
                isinstance(x, numbers.Integral) or (isinstance(x, float) and x.is_integer())
            ):
                raise ValueError(f"loads must be integers, got {x!r}")
        loads = tuple(int(x) for x in self.loads)
        object.__setattr__(self, "loads", loads)
        if not loads:
            raise ValueError("loads must be non-empty")
        if any(load < 1 for load in loads):
            raise ValueError("loads must be >= 1")
        require_int("replications", self.replications, 1)


@dataclass(frozen=True)
class ScenarioSpec(Encodable):
    """A complete, serialisable experiment scenario.

    Attributes:
        mobility: The mobility input (see :class:`MobilitySpec`).
        protocols: Protocols under comparison, in figure order.
        workload: The sweep grid (defaults to the paper's 5..50 × 10).
        name: Label used in reports and export file names.
        seed: Master seed for every random stream in the scenario.
        shared_trace: True (paper's setup) = one trace shared by all runs;
            False = a fresh trace per replication index, each generated
            with a seed derived from ``(base, "mobility", rep)`` where
            ``base`` is the mobility's pinned seed or, by default, ``seed``.
        buffer_capacity / bundle_tx_time: Mechanism constants. These and
            ``drop_policy``, ``record_occupancy``, ``engine``, ``kernel``
            and ``faults`` are the fields of
            :class:`~repro.core.simulation.SimulationConfig`, which the
            spec builds from that class's own field list. Each
            accepts one scalar (homogeneous population) or a JSON list with
            one entry per node (heterogeneous devices).
        drop_policy: Buffer drop policy consulted on buffer pressure
            (``reject``, ``drop-tail``, ``drop-oldest``, ``drop-youngest``,
            ``drop-random`` — see :mod:`repro.core.policies`). The default
            ``reject`` reproduces the classic refuse-incoming behaviour.
        record_occupancy: Record the per-change ``(time, fill)`` occupancy
            series in every run's :class:`~repro.core.results.RunResult`
            (see :attr:`~repro.core.simulation.SimulationConfig.record_occupancy`).
            Off by default — an append per buffer delta is pure overhead
            for sweeps that only consume the distilled scalars.
        engine: ``"des"`` (default) runs every cell on the event-driven
            simulator; ``"ode"`` runs them on the mean-field surrogate
            (:mod:`repro.analytic.surrogate`), which is what lets a
            scenario sweep 10^5–10^6-node populations in seconds.
        kernel: Path of the contact sweep
            (:mod:`repro.core.sweepkernel`) for DES cells — ``"auto"``
            (default) runs each cell on the skip path whenever the cell
            qualifies and sweeps every contact through the protocol hooks
            otherwise; ``"event"`` forces the sweep-all path; ``"soa"``
            forces the skip path and fails fast when a cell cannot run on
            it (at run start: dynamic TTL, PRoPHET, mixed or custom
            protocols; at spec load when combined with the ``ode``
            engine). Both paths produce byte-identical results, so this
            is purely a speed dial.
        surrogate_check: When the engine is ``"ode"``, run the
            cross-validation gate (:mod:`repro.analytic.calibration`)
            before the sweep: both engines execute a small reference grid
            and the scenario is refused if they disagree beyond
            ``surrogate_tolerance``. On by default — disable only for
            grids you have already validated.
        surrogate_tolerance: Per-metric mean relative error the gate
            tolerates (default 10%).
        surrogate_reference: Mobility the gate anchors the DES side on.
            Defaults to the scenario's own mobility; **required** when
            that mobility is ``analytic`` (a meeting rate has no contacts
            to simulate).
        retries: Extra attempts for cells interrupted by a transient
            worker-process death (see
            :class:`~repro.core.executors.FailurePolicy`).
        retry_backoff: Base seconds of the exponential pause between
            worker-pool rebuilds after such a death.
        cell_timeout: Wall-clock seconds one cell may run before being
            declared hung and failed (parallel execution only); None
            disables the watchdog.
        on_error: ``"abort"`` (default) stops the campaign at the first
            permanently failed cell; ``"keep-going"`` records the
            failure in :attr:`SweepResult.failures
            <repro.core.results.SweepResult.failures>` and completes the
            rest of the grid.
        faults: Optional disruption model (:class:`repro.faults.FaultSpec`)
            applied to every cell: node churn with reboot state loss,
            lossy links, per-bundle transfer failure. The fault
            environment is seeded from ``(seed, "faults", load, rep)`` —
            independent of the protocol — so every protocol in the
            scenario faces the identical disruptions. Unsupported by the
            ``ode`` engine (the surrogate has no node identity to crash).
    """

    mobility: MobilitySpec
    protocols: tuple[ProtocolSpec, ...]
    workload: WorkloadSpec = WorkloadSpec()
    name: str = ""
    seed: int = 0
    shared_trace: bool = True
    buffer_capacity: int | tuple[int, ...] = 10
    bundle_tx_time: float | tuple[float, ...] = 100.0
    drop_policy: str = "reject"
    record_occupancy: bool = False
    engine: str = "des"
    kernel: str = "auto"
    surrogate_check: bool = True
    surrogate_tolerance: float = 0.10
    surrogate_reference: MobilitySpec | None = None
    retries: int = 0
    retry_backoff: float = 0.5
    cell_timeout: float | None = None
    on_error: str = "abort"
    faults: FaultSpec | None = None
    _sim: SimulationConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        protocols = tuple(self.protocols)
        object.__setattr__(self, "protocols", protocols)
        if not protocols:
            raise ValueError("scenario needs at least one protocol")
        require_int("seed", self.seed, 0)
        require_bool("shared_trace", self.shared_trace)
        require_bool("surrogate_check", self.surrogate_check)
        # Fail fast on bad mechanism constants; SimulationConfig also
        # normalises per-node lists, so adopt its tuple forms.
        sim = SimulationConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(SimulationConfig)}
        )
        object.__setattr__(self, "_sim", sim)
        object.__setattr__(self, "buffer_capacity", sim.buffer_capacity)
        object.__setattr__(self, "bundle_tx_time", sim.bundle_tx_time)
        if self.engine == "ode" and sim.active_faults is not None:
            raise ValueError(
                "fault injection is unsupported by the surrogate: the ODE "
                "engine models an anonymous mean-field population with no "
                "node identity to crash or link to sever — run faulted "
                'cells with engine="des", or clear the fault spec'
            )
        if self.engine == "ode":
            from repro.analytic.surrogate import transmission_coins

            # each ODE cell would refuse these; refuse them before the
            # gate's DES reference grid runs
            for protocol in self.build_protocols():
                transmission_coins(protocol)
        require_real("surrogate_tolerance", self.surrogate_tolerance)
        if not (0.0 < self.surrogate_tolerance <= 1.0):
            raise ValueError(
                f"surrogate_tolerance must be in (0, 1], got {self.surrogate_tolerance}"
            )
        if self.surrogate_reference is not None and not isinstance(
            self.surrogate_reference, MobilitySpec
        ):
            raise ValueError("surrogate_reference must be a MobilitySpec or None")
        # Fail fast on a bad failure policy (FailurePolicy validates
        # retries >= 0, backoff >= 0, positive timeout, on_error mode);
        # the backoff first, so its error names this spec's key.
        require_nonneg("retry_backoff", self.retry_backoff)
        self.failure_policy()

    # ------------------------------------------------------------- building

    def trace_seed(self, rep: int = 0) -> int:
        """The generation seed of replication ``rep``'s trace.

        The mobility's pinned seed (when set) — otherwise the scenario
        seed — is the *base*; with ``shared_trace=False`` the effective
        seed is derived from ``(base, "mobility", rep)`` so replications
        stay independent even when the base is pinned.
        """
        base = self.mobility.seed if self.mobility.seed is not None else self.seed
        if not self.shared_trace:
            base = int(derive_seed(base, "mobility", rep).generate_state(1)[0])
        return base

    def build_trace(self, rep: int = 0) -> ContactTrace:
        """The mobility input for replication ``rep`` (seeded by :meth:`trace_seed`)."""
        return build_mobility(
            self.mobility.kind, seed=self.trace_seed(rep), **self.mobility.params
        )

    def _stored_trace_factory(self, journal: CheckpointJournal) -> TraceFactory:
        """:meth:`build_trace` through the campaign's trace store, except
        for the :data:`UNSTORED_MOBILITY_KINDS`."""
        if self.mobility.kind in UNSTORED_MOBILITY_KINDS:
            return self.build_trace

        def stored(rep: int) -> ContactTrace:
            recipe = {"mobility": self.mobility.to_dict(), "seed": self.trace_seed(rep)}
            return journal.trace(recipe, lambda: self.build_trace(rep))

        return stored

    def build_protocols(self) -> list[ProtocolConfig]:
        """Instantiate every protocol configuration."""
        return [p.build() for p in self.protocols]

    def sweep_config(self) -> SweepConfig:
        """The equivalent :class:`~repro.core.sweep.SweepConfig`."""
        return SweepConfig(
            loads=self.workload.loads,
            replications=self.workload.replications,
            master_seed=self.seed,
            shared_trace=self.shared_trace,
            sim=self._sim,
        )

    def failure_policy(self) -> FailurePolicy:
        """The equivalent :class:`~repro.core.executors.FailurePolicy`."""
        return FailurePolicy(
            retries=self.retries,
            backoff=self.retry_backoff,
            cell_timeout=self.cell_timeout,
            on_error=self.on_error,
        )

    def run(
        self,
        *,
        executor: Executor | None = None,
        jobs: int | None = None,
        progress: Callable[[str], None] | None = None,
        checkpoint: str | Path | None = None,
        resume: bool = False,
    ) -> SweepResult:
        """Execute the scenario's full sweep grid.

        Args:
            executor: Explicit execution backend; mutually exclusive with
                ``jobs``.
            jobs: Convenience: >1 selects a
                :class:`~repro.core.executors.ParallelExecutor` with that
                many worker processes.
            progress: Per-cell progress callback (one line per completed
                replication, with a ``[done/total]`` counter).
            checkpoint: Campaign directory for crash-safe per-cell
                journaling (see :mod:`repro.core.checkpoint`); as each
                cell completes its result is durably appended, and a
                killed campaign can be continued with ``resume=True``.
                The directory also stores every trace the cells run on,
                so a resume loads them instead of regenerating them.
            resume: Continue the campaign journaled in ``checkpoint``:
                journaled cells are restored from disk (bit-identical —
                cell randomness derives from cell coordinates alone) and
                only the missing cells execute.

        Raises:
            repro.analytic.calibration.SurrogateAccuracyError: when the
                engine is ``"ode"``, the gate is enabled, and the
                surrogate misses the event simulator beyond
                ``surrogate_tolerance`` on the reference grid.
            repro.analytic.calibration.IncompleteReferenceGridError: when
                a cell of the gate's reference grid failed (possible under
                ``on_error="keep-going"``).
            repro.core.checkpoint.CheckpointError: when ``checkpoint``
                holds a different campaign, is corrupt, or already holds
                results and ``resume`` is False.
            repro.core.executors.CellExecutionError: when a cell fails
                permanently and ``on_error`` is ``"abort"``.
        """
        from repro.core.executors import make_executor
        from repro.core.sweep import run_sweep

        if executor is not None and jobs is not None:
            raise ValueError("pass either executor or jobs, not both")
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory")
        if executor is None:
            executor = make_executor(jobs)
        report_data: dict[str, Any] | None = None
        if self.engine == "ode" and self.surrogate_check:
            from repro.analytic.calibration import cross_validate_scenario

            report = cross_validate_scenario(self, progress=progress)
            report.ensure(self.surrogate_tolerance)
            report_data = report.to_dict()
        journal = None
        factory: TraceFactory = self.build_trace
        if checkpoint is not None:
            journal = CheckpointJournal(checkpoint, resume=resume)
            factory = self._stored_trace_factory(journal)
        result = run_sweep(
            factory,
            self.build_protocols(),
            self.sweep_config(),
            executor=executor,
            progress=progress,
            policy=self.failure_policy(),
            checkpoint=journal,
        )
        result.surrogate_report = report_data
        return result

    # -------------------------------------------------------- serialisation

    def to_json(self, *, indent: int = 2) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> ScenarioSpec:
        """Parse a scenario from a JSON document.

        Raises:
            ValueError: on malformed JSON, unknown keys, or bad values.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, dest: str | Path | TextIO) -> None:
        """Write the scenario as JSON to a path (atomically) or stream."""
        text = self.to_json() + "\n"
        if isinstance(dest, (str, Path)):
            from repro.ioutil import atomic_write_text

            atomic_write_text(dest, text)
        else:
            dest.write(text)

    @classmethod
    def load(cls, source: str | Path | TextIO) -> ScenarioSpec:
        """Read a scenario JSON file (path or open stream)."""
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source.read()
        return cls.from_json(text)

