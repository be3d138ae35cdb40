"""Synthetic campus contact trace — substitute for the CRAWDAD Haggle dataset.

The paper's trace-based study uses the CRAWDAD
``cambridge/haggle/imote/intel`` dataset: 12 short-range devices carried by
students for five days (observation horizon 524,162 s), recording encounter
begin times, durations and counts. That dataset is not redistributable and
this environment has no network access, so :class:`CampusTraceGenerator`
produces a statistically equivalent trace:

* **Pairwise renewal process** — each unordered device pair meets according
  to its own renewal process, reproducing "nodes are not always connected
  and experience large delays between meetings".
* **Friendship graph** — only a fraction of pairs (``pair_activity``) ever
  meet, connected via a random spanning tree, as in real student cohorts
  where each participant regularly sees a handful of others. This makes
  multi-hop relaying *essential* for most (source, destination) draws —
  the property all of the paper's protocol separations rest on.
* **Log-normal inter-contact gaps** — heavy-tailed inter-contact times, the
  well-documented property of the Haggle traces (Chaintreau et al.); median
  gaps of hours with a tail of a day+.
* **Pair heterogeneity** — per-pair rate multipliers model friend pairs that
  meet often vs. strangers that almost never do.
* **Log-normal encounter durations** — a few minutes median, matching the
  paper's worked example (a 314 s encounter carrying 3 bundles).
* **Diurnal thinning** — optional day/night activity modulation: candidate
  encounters at night are accepted with reduced probability.

Epidemic-routing behaviour depends on the contact process only — who meets
whom, when, for how long — so this generator exercises exactly the code
paths the real dataset would. The adapter in
:mod:`repro.mobility.trace_file` loads the genuine dataset unchanged when
available.

Unlike the trajectory-based models in :mod:`repro.mobility.rwp`, this
generator draws encounters directly from the renewal process — there is no
geometric contact detection, hence no ``engine`` knob: the per-pair draws
are already vectorised and scale linearly in the number of active pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mobility.contact import Contact, ContactTrace
from repro.validation import (
    require_bool,
    require_finite,
    require_int,
    require_nonneg,
    require_prob,
)

#: The last timestamp of the paper's campus trace (Section IV).
CAMPUS_HORIZON_S = 524_162.0


@dataclass(frozen=True)
class CampusTraceConfig:
    """Statistical model parameters for the synthetic campus trace.

    Defaults are calibrated so a generated trace matches the paper's setup:
    12 nodes over 524,162 s; node-level encounter gaps of a few minutes
    (frequent sightings, as in the iMote listings) but pair-level gaps of
    hours with a heavy tail — so constant-TTL protocols function yet
    end-to-end delivery still takes ~10⁵ s, matching Figs 7 and 13.

    Attributes:
        num_nodes: Devices in the experiment (paper: 12).
        horizon: Observation end in seconds (paper: 524,162).
        mean_intercontact: Mean pair inter-contact gap in seconds before
            heterogeneity scaling (default 6 h).
        intercontact_sigma: Log-normal sigma of the gap distribution; ~1.1
            gives the heavy tail reported for Haggle traces.
        heterogeneity_sigma: Log-normal sigma of the per-pair rate
            multiplier (0 = homogeneous pairs).
        pair_activity: Fraction of node pairs that meet regularly (the
            friendship graph density). A random spanning tree keeps the
            graph connected so every endpoint draw is in principle
            deliverable; 1.0 disables the friendship structure.
        background_activity: Contact-rate multiplier for non-friend pairs
            (strangers still bump into each other occasionally — at
            ``background_activity`` times the friend rate). 0 restores a
            hard friendship cut.
        duration_median: Median encounter duration in seconds.
        duration_sigma: Log-normal sigma of durations.
        min_duration / max_duration: Duration clamp in seconds.
        diurnal: Apply day/night thinning.
        night_activity: Acceptance probability for night-time encounters
            (day-time encounters are always kept).
        day_start / day_end: Active window within each 86,400 s day.
        day_phase: Time-of-day that t = 0 corresponds to. The paper's
            experiment starts when devices were handed out (mid-morning),
            so sources are active from the first simulated second; without
            the phase, t = 0 would fall at "midnight" and TTL-based
            protocols would lose their bundles before the first encounter
            purely as a calibration artefact.
        handout_burst: Model the device-handout gathering: in the first
            ``burst_window`` seconds, each pair additionally meets with
            probability ``burst_pair_prob`` for a long contact. Relevant
            for the ``expire_origin`` TTL ablation — with a handout burst,
            sources flush part of their queue before the first TTL
            deadline, which is how the paper's trace study can show
            non-trivial constant-TTL delivery even if origin copies expire.
    """

    num_nodes: int = 12
    horizon: float = CAMPUS_HORIZON_S
    mean_intercontact: float = 4_000.0
    intercontact_sigma: float = 0.5
    heterogeneity_sigma: float = 0.3
    pair_activity: float = 0.45
    background_activity: float = 0.08
    duration_median: float = 120.0
    duration_sigma: float = 0.9
    min_duration: float = 20.0
    max_duration: float = 2_000.0
    diurnal: bool = True
    night_activity: float = 0.25
    day_start: float = 8 * 3600.0
    day_end: float = 22 * 3600.0
    day_phase: float = 9 * 3600.0
    handout_burst: bool = False
    burst_window: float = 600.0
    burst_pair_prob: float = 0.6
    burst_min_duration: float = 180.0
    burst_max_duration: float = 480.0

    def __post_init__(self) -> None:
        require_int("num_nodes", self.num_nodes, 2)
        for name in (
            "horizon",
            "mean_intercontact",
            "pair_activity",
            "background_activity",
            "duration_median",
            "min_duration",
            "max_duration",
            "night_activity",
            "day_start",
            "day_end",
            "day_phase",
            "burst_min_duration",
            "burst_max_duration",
            "intercontact_sigma",
            "heterogeneity_sigma",
            "duration_sigma",
            "burst_window",
        ):
            require_finite(name, getattr(self, name))
        for name in ("intercontact_sigma", "heterogeneity_sigma", "duration_sigma"):
            require_nonneg(name, getattr(self, name))
        require_bool("diurnal", self.diurnal)
        require_bool("handout_burst", self.handout_burst)
        require_nonneg("burst_window", self.burst_window)
        require_prob("burst_pair_prob", self.burst_pair_prob)
        # written as not (valid) so NaN fails too
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not self.mean_intercontact > 0:
            raise ValueError(
                f"mean_intercontact must be positive, got {self.mean_intercontact!r}"
            )
        if not (0 < self.burst_min_duration <= self.burst_max_duration):
            raise ValueError("need 0 < burst_min_duration <= burst_max_duration")
        if not (0 < self.min_duration <= self.duration_median <= self.max_duration):
            raise ValueError(
                "need 0 < min_duration <= duration_median <= max_duration"
            )
        if not (0.0 <= self.night_activity <= 1.0):
            raise ValueError("night_activity must be a probability")
        if not (0.0 < self.pair_activity <= 1.0):
            raise ValueError("pair_activity must be in (0, 1]")
        if not (0.0 <= self.background_activity <= 1.0):
            raise ValueError("background_activity must be in [0, 1]")
        if not (0.0 <= self.day_start < self.day_end <= 86_400.0):
            raise ValueError("need 0 <= day_start < day_end <= 86400")


class CampusTraceGenerator:
    """Generates reproducible synthetic campus traces.

    Example:
        >>> trace = CampusTraceGenerator(seed=42).generate()
        >>> trace.num_nodes
        12
    """

    def __init__(self, config: CampusTraceConfig | None = None, *, seed: int = 0) -> None:
        self.config = config or CampusTraceConfig()
        self.seed = seed

    # ------------------------------------------------------------ internals

    def _gap_mu(self) -> float:
        """Log-normal mu so the gap mean equals ``mean_intercontact``."""
        c = self.config
        return math.log(c.mean_intercontact) - 0.5 * c.intercontact_sigma**2

    def _is_daytime(self, t: float) -> bool:
        c = self.config
        tod = (t + c.day_phase) % 86_400.0
        return c.day_start <= tod < c.day_end

    def _pair_contacts(
        self, a: int, b: int, rate_scale: float, rng: np.random.Generator
    ) -> list[Contact]:
        """Renewal process for one pair: gaps then durations, vectorised."""
        c = self.config
        mu = self._gap_mu() + math.log(rate_scale)
        mean_gap = math.exp(mu + 0.5 * c.intercontact_sigma**2)
        # Draw enough gaps to cover the horizon with margin, then cumsum.
        est = max(8, int(c.horizon / mean_gap * 2.5) + 8)
        gaps = rng.lognormal(mu, c.intercontact_sigma, size=est)
        starts = np.cumsum(gaps)
        while starts[-1] < c.horizon:  # rare: extend until past the horizon
            more = rng.lognormal(mu, c.intercontact_sigma, size=est)
            starts = np.concatenate([starts, starts[-1] + np.cumsum(more)])
        starts = starts[starts < c.horizon]
        if starts.size == 0:
            return []
        durations = np.clip(
            rng.lognormal(math.log(c.duration_median), c.duration_sigma, starts.size),
            c.min_duration,
            c.max_duration,
        )
        contacts: list[Contact] = []
        prev_end = -math.inf
        for s, d in zip(starts.tolist(), durations.tolist(), strict=True):
            if c.diurnal and not self._is_daytime(s):
                if rng.random() > c.night_activity:
                    continue
            e = min(s + d, c.horizon)
            if e - s < c.min_duration:
                continue
            if s < prev_end:  # renewal overlap after clamping: skip
                continue
            contacts.append(Contact(start=s, end=e, a=a, b=b))
            prev_end = e
        return contacts

    def _active_pairs(self, rng: np.random.Generator) -> list[tuple[int, int]]:
        """The friendship graph: a random spanning tree plus extra pairs.

        The tree guarantees connectivity; additional pairs are sampled so
        the expected total density matches ``pair_activity``.
        """
        c = self.config
        nodes = list(range(c.num_nodes))
        order = rng.permutation(nodes).tolist()
        tree: set[tuple[int, int]] = set()
        for k in range(1, len(order)):
            attach = order[int(rng.integers(k))]
            a, b = order[k], attach
            tree.add((min(a, b), max(a, b)))
        all_pairs = [
            (i, j) for i in range(c.num_nodes) for j in range(i + 1, c.num_nodes)
        ]
        if c.pair_activity >= 1.0:
            return all_pairs
        target = c.pair_activity * len(all_pairs)
        extra_needed = max(0.0, target - len(tree))
        remaining = [p for p in all_pairs if p not in tree]
        p_extra = min(1.0, extra_needed / len(remaining)) if remaining else 0.0
        active = set(tree)
        for pair in remaining:
            if rng.random() < p_extra:
                active.add(pair)
        return sorted(active)

    def _add_handout_burst(
        self, contacts: list[Contact], root: np.random.SeedSequence
    ) -> list[Contact]:
        """Inject the device-handout gathering at the start of the trace.

        Burst contacts replace (rather than stack on) any renewal contact
        of the same pair that would overlap the burst window.
        """
        c = self.config
        rng = np.random.default_rng(root.spawn(1)[0])
        burst_end = c.burst_window + c.burst_max_duration
        kept = [ct for ct in contacts if ct.start >= burst_end]
        burst: list[Contact] = []
        for i in range(c.num_nodes):
            for j in range(i + 1, c.num_nodes):
                if rng.random() >= c.burst_pair_prob:
                    continue
                start = float(rng.uniform(0.0, c.burst_window))
                dur = float(rng.uniform(c.burst_min_duration, c.burst_max_duration))
                burst.append(Contact(start=start, end=start + dur, a=i, b=j))
        return burst + kept

    # ------------------------------------------------------------ public API

    def generate(self) -> ContactTrace:
        """Generate the full trace (deterministic in ``seed``)."""
        c = self.config
        root = np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0xCA3B05])
        graph_rng = np.random.default_rng(root.spawn(1)[0])
        friends = set(self._active_pairs(graph_rng))
        pair_list = [
            (i, j) for i in range(c.num_nodes) for j in range(i + 1, c.num_nodes)
        ]
        het_rng = np.random.default_rng(root.spawn(2)[1])
        if c.heterogeneity_sigma > 0:
            scales = het_rng.lognormal(0.0, c.heterogeneity_sigma, len(pair_list))
        else:
            scales = np.ones(len(pair_list))
        contacts: list[Contact] = []
        pair_seeds = root.spawn(len(pair_list) + 2)[2:]
        for (i, j), scale, ss in zip(pair_list, scales.tolist(), pair_seeds, strict=True):
            if (i, j) not in friends:
                if c.background_activity <= 0.0:
                    continue
                # strangers: same renewal process, background_activity times
                # the rate, i.e. gaps 1/background_activity times longer
                scale = scale / c.background_activity
            rng = np.random.default_rng(ss)
            contacts.extend(self._pair_contacts(i, j, scale, rng))
        if c.handout_burst:
            contacts = self._add_handout_burst(contacts, root)
        trace = ContactTrace(
            contacts,
            c.num_nodes,
            horizon=c.horizon,
            name=f"campus-synthetic(seed={self.seed})",
        )
        trace.validate_disjoint_pairs()
        return trace

    def describe(self) -> dict[str, float | int | bool]:
        """The statistical model as a flat dict (for reports/EXPERIMENTS.md)."""
        c = self.config
        return {
            "num_nodes": c.num_nodes,
            "horizon_s": c.horizon,
            "mean_intercontact_s": c.mean_intercontact,
            "intercontact_sigma": c.intercontact_sigma,
            "heterogeneity_sigma": c.heterogeneity_sigma,
            "duration_median_s": c.duration_median,
            "duration_sigma": c.duration_sigma,
            "diurnal": c.diurnal,
            "seed": self.seed,
        }
