"""The churn-resilience study: delivery under node crashes and reboots.

The paper's runs assume a cooperative, always-on population; the fault
model (:mod:`repro.faults`) lets us ask how each protocol family degrades
when relays crash, sit out contacts, and reboot with or without their
state. This study sweeps the grid

    churn rate × state-loss mode × protocol × load × replication

on one shared mobility input (:class:`ResilienceConfig` is a
:class:`~repro.experiments.matrix.MatrixConfig`: run it with
:func:`~repro.experiments.matrix.run_matrix_study` and render the result
with :func:`~repro.analysis.tables.render_resilience_table`). The
churn-rate axis includes 0.0 — a
fault-free baseline row that, by the trivial-spec normalisation in
:meth:`~repro.core.simulation.SimulationConfig.active_faults`, runs the
exact unfaulted code path — and the state-loss axis contrasts reboots
that preserve state (``none``) with reboots that wipe both the buffer and
the knowledge store (``all``). The fault environment keys on
(seed, load, rep) only, so every (protocol, state-loss) configuration at
the same grid coordinates faces the identical crash schedule: column
differences are protocol behaviour, not fault luck.

The interesting separation is between the state-preserving and
state-losing columns of knowledge-bearing protocols: an anti-packet or
immunity node that forgets its delivered-set is re-infected by the next
carrier it meets (counted as ``reinfections``), while a flooding node has
no knowledge to lose and only pays the buffer wipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulation import SimulationConfig
from repro.experiments.matrix import MatrixConfig
from repro.faults import STATE_LOSS_MODES, FaultSpec
from repro.scenarios import MobilitySpec, ProtocolSpec

#: Churn rates swept by default (per-node crash rate, 1/s while up): the
#: fault-free baseline, a gentle regime (~1 crash per 20 000 s up-time)
#: and a harsh one (~1 per 5 000 s).
DEFAULT_CHURN_RATES: tuple[float, ...] = (0.0, 5e-5, 2e-4)

#: Reboot modes contrasted by default: state-preserving vs full wipe.
DEFAULT_STATE_LOSS_MODES: tuple[str, ...] = ("none", "all")

#: Mean outage duration (s) for every non-zero churn rate.
DEFAULT_MEAN_DOWNTIME: float = 2000.0

#: Protocol families compared by default: the flooding baseline (nothing
#: to forget), an anti-packet purger and an immunity-table protocol (both
#: knowledge-bearing, so state loss hurts them twice).
DEFAULT_PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec("pure"),
    ProtocolSpec("pq", {"p": 1.0, "q": 1.0, "anti_packets": True}),
    ProtocolSpec("immunity"),
)


def churn_rate_label(rate: float) -> str:
    """Row label for a churn-rate axis value."""
    return f"{rate:g}"


@dataclass(frozen=True)
class ResilienceConfig(MatrixConfig):
    """The resilience study's grid: churn-rate rows × state-loss columns.

    Attributes:
        churn_rates: Per-node crash rates to sweep; include 0.0 for the
            fault-free baseline row.
        state_loss_modes: Reboot modes (see
            :data:`repro.faults.STATE_LOSS_MODES`) contrasted per rate.
        mean_downtime: Mean outage duration (s), shared by every faulted
            cell so the rate axis varies crash frequency alone.
        protocols: Protocols under comparison.
        mobility: Shared mobility input (the paper's campus trace by
            default).
        loads: Offered loads per cell.
        replications: Replications per (rate, mode, protocol, load).
        seed: Master seed — the fault environment derives from
            (seed, load, rep), so all protocols and all state-loss modes
            face identical crash schedules at the same coordinates.
    """

    churn_rates: tuple[float, ...] = DEFAULT_CHURN_RATES
    state_loss_modes: tuple[str, ...] = DEFAULT_STATE_LOSS_MODES
    mean_downtime: float = DEFAULT_MEAN_DOWNTIME
    protocols: tuple[ProtocolSpec, ...] = DEFAULT_PROTOCOLS
    mobility: MobilitySpec = field(default_factory=lambda: MobilitySpec("campus"))
    loads: tuple[int, ...] = (10, 30)
    replications: int = 3
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.churn_rates:
            raise ValueError("churn_rates must be non-empty")
        if any(rate < 0 for rate in self.churn_rates):
            raise ValueError("churn_rates must be >= 0")
        if not self.state_loss_modes:
            raise ValueError("state_loss_modes must be non-empty")
        for mode in self.state_loss_modes:
            if mode not in STATE_LOSS_MODES:
                raise ValueError(
                    f"unknown state-loss mode {mode!r}; "
                    f"known: {', '.join(STATE_LOSS_MODES)}"
                )
        self.require_distinct_labels("churn_rates", "state_loss_modes")
        if not self.protocols:
            raise ValueError("protocols must be non-empty")
        if self.mean_downtime <= 0 and any(r > 0 for r in self.churn_rates):
            raise ValueError("mean_downtime must be > 0 for non-zero churn rates")
        # Validate every (rate, mode) combination up front.
        for rate in self.churn_rates:
            for mode in self.state_loss_modes:
                self.setting(rate, mode)

    def axes(self) -> tuple[tuple[float, ...], tuple[str, ...]]:
        return self.churn_rates, self.state_loss_modes

    def row_label(self, rate: float) -> str:
        return churn_rate_label(rate)

    def setting(self, rate: float, mode: str) -> SimulationConfig:
        # A zero rate's trivial spec is normalised away by
        # SimulationConfig.active_faults: the baseline row runs the exact
        # unfaulted code path.
        return SimulationConfig(
            faults=FaultSpec(churn_rate=rate, mean_downtime=self.mean_downtime, state_loss=mode)
        )

    def describe(self, sim: SimulationConfig) -> str:
        spec = sim.faults
        assert spec is not None
        return f"churn={churn_rate_label(spec.churn_rate)} state_loss={spec.state_loss}"


__all__ = [
    "DEFAULT_CHURN_RATES",
    "DEFAULT_MEAN_DOWNTIME",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_STATE_LOSS_MODES",
    "ResilienceConfig",
    "churn_rate_label",
]
