"""Disruption model: deterministic fault injection for the DES.

The simulator's world is perfectly reliable by default — contacts are
oracle intervals, buffers and i-lists are immortal, transfers always
complete. :class:`FaultSpec` describes the three disruption axes the
robustness studies sweep:

* **node churn** — per-node crash/recovery processes, either sampled
  (exponential up/down times) or scheduled explicitly
  (``downtime_schedule``). A crashed node misses contacts; on reboot it
  optionally loses its buffer and/or knowledge state (``state_loss``).
* **lossy links** — whole contacts dropped with ``contact_drop_prob``,
  and mid-contact interruption (``interrupt_prob``) that severs the link
  partway through, truncating in-flight transfers.
* **transfer failure** — i.i.d. per-bundle transmission failure
  (``transfer_failure_prob``): the slot is charged but the copy is not
  delivered.

All randomness is drawn from seeded streams derived from the fault seed
(see :class:`repro.des.rng.RngHub`), so faulted runs stay bit-identical
between serial and parallel executors and across checkpoint resume. The
spec itself is a frozen, hashable value object with an exact JSON
round-trip, carried on ``SimulationConfig``/``ScenarioSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.validation import require_nonneg, require_prob

#: Accepted ``state_loss`` modes, in increasing order of amnesia.
STATE_LOSS_MODES = ("none", "buffer", "knowledge", "all")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one fault environment.

    An all-defaults spec is *trivial*: it injects nothing and a run
    carrying it is byte-identical to an unfaulted run.
    """

    #: crash intensity per node per second of up-time (exponential).
    churn_rate: float = 0.0
    #: mean repair time in seconds (exponential); required when churning.
    mean_downtime: float = 0.0
    #: what a rebooting node forgets: ``none``/``buffer``/``knowledge``/``all``.
    state_loss: str = "none"
    #: explicit outages as ``(node, down_at, up_at)`` triples, merged with
    #: the sampled churn process (union of down-intervals).
    downtime_schedule: tuple[tuple[int, float, float], ...] = ()
    #: probability an entire contact never happens.
    contact_drop_prob: float = 0.0
    #: probability a surviving contact is severed partway through.
    interrupt_prob: float = 0.0
    #: i.i.d. probability any single bundle transfer fails (charged slot).
    transfer_failure_prob: float = 0.0

    def __post_init__(self) -> None:
        require_nonneg("churn_rate", self.churn_rate)
        require_nonneg("mean_downtime", self.mean_downtime)
        require_prob("contact_drop_prob", self.contact_drop_prob)
        require_prob("interrupt_prob", self.interrupt_prob)
        require_prob("transfer_failure_prob", self.transfer_failure_prob)
        if self.state_loss not in STATE_LOSS_MODES:
            raise ValueError(
                f"state_loss must be one of {STATE_LOSS_MODES}, "
                f"got {self.state_loss!r}"
            )
        if self.churn_rate > 0.0 and self.mean_downtime <= 0.0:
            raise ValueError("churn_rate > 0 requires mean_downtime > 0")
        normalized = []
        for entry in self.downtime_schedule:
            if len(entry) != 3:
                raise ValueError(
                    f"downtime_schedule entries are (node, down_at, up_at), "
                    f"got {entry!r}"
                )
            node, down_at, up_at = entry
            node = int(node)
            down_at = float(down_at)
            up_at = float(up_at)
            if node < 0:
                raise ValueError(f"downtime_schedule node must be >= 0, got {node}")
            if not 0.0 <= down_at < up_at:
                raise ValueError(
                    f"downtime_schedule requires 0 <= down_at < up_at, "
                    f"got ({node}, {down_at}, {up_at})"
                )
            normalized.append((node, down_at, up_at))
        object.__setattr__(self, "downtime_schedule", tuple(sorted(normalized)))

    # ------------------------------------------------------------ predicates

    @property
    def has_churn(self) -> bool:
        """True when any node can ever go down."""
        return self.churn_rate > 0.0 or bool(self.downtime_schedule)

    @property
    def has_link_faults(self) -> bool:
        return self.contact_drop_prob > 0.0 or self.interrupt_prob > 0.0

    @property
    def is_trivial(self) -> bool:
        """True when this spec injects nothing at all.

        ``state_loss`` alone does not count: with no churn there is never
        a reboot to lose state at.
        """
        return not (
            self.has_churn or self.has_link_faults or self.transfer_failure_prob > 0.0
        )

    @property
    def wipes_buffer(self) -> bool:
        return self.has_churn and self.state_loss in ("buffer", "all")

    @property
    def wipes_knowledge(self) -> bool:
        return self.has_churn and self.state_loss in ("knowledge", "all")

    # ------------------------------------------------------------- round-trip

    def to_dict(self) -> dict[str, Any]:
        return {
            "churn_rate": self.churn_rate,
            "mean_downtime": self.mean_downtime,
            "state_loss": self.state_loss,
            "downtime_schedule": [list(entry) for entry in self.downtime_schedule],
            "contact_drop_prob": self.contact_drop_prob,
            "interrupt_prob": self.interrupt_prob,
            "transfer_failure_prob": self.transfer_failure_prob,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FaultSpec:
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"FaultSpec: unknown key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        if "downtime_schedule" in kwargs:
            kwargs["downtime_schedule"] = tuple(
                tuple(entry) for entry in kwargs["downtime_schedule"]
            )
        return cls(**kwargs)
