"""The mean-field surrogate engine: sweep cells without event simulation.

``engine="ode"`` replaces the discrete-event run of a sweep cell with the
classical fluid/Markov epidemic model (Zhang et al.; see
:mod:`repro.analytic.epidemic_ode`), generalised to the P-Q transmission
coins. The surrogate emits a complete
:class:`~repro.core.results.RunResult`, so every table, figure and export
downstream of a sweep consumes it unchanged.

Model: the holders of a bundle form a pure-birth chain

    i → i + 1   at rate   λ_i = β (N − i) (p + q (i − 1))

— the source transmits with probability *p*, each of the i − 1 relays with
*q*; pure epidemic is p = q = 1. Two integration regimes:

* **exact** (N ≤ :data:`EXACT_LIMIT`): forward integration of the chain's
  Kolmogorov equations. Finite-N effects included, which matters at paper
  scale (N = 12 gives visibly non-logistic growth).
* **fluid** (large N): the mean-field ODE dI/dt = β (N − I)(p + q (I − 1)),
  which has a closed logistic form for every (p, q) — this is what makes
  10^5–10^6-node sweeps effectively free.

Both regimes expose the same two curves: the unconditional mean holder
count E[I(t)] — the delivery CDF is (E[I(t)] − 1)/(N − 1) by
exchangeability of the non-source nodes — and the holder count conditioned
on the destination still being susceptible, which is what buffer-occupancy
and duplication integrals see *before* the run completes.

Deliberately unmodeled: buffer contention (occupancy is clamped at
capacity but spreading is not slowed by refusals) and control signaling
(reported as zero). The cross-validation gate in
:mod:`repro.analytic.calibration` is the guard rail: it measures the
surrogate against the event simulator on a small grid before any
extrapolation is trusted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.analytic.meeting_rate import estimate_meeting_rate
from repro.core.protocols.registry import ProtocolConfig
from repro.core.results import RunResult
from repro.core.simulation import SimulationConfig
from repro.core.workload import Flow
from repro.mobility.contact import ContactTrace

#: Population size up to which the exact Markov chain is integrated;
#: larger populations use the closed-form fluid limit.
EXACT_LIMIT = 512

#: Protocol registry names the surrogate has a mean-field model for.
SUPPORTED_PROTOCOLS: tuple[str, ...] = ("pure", "pq")

#: Curve resolution. The fluid regime samples exactly this many points
#: (plus the horizon when it saturates first). The exact regime sizes its
#: record stride so the chain's expected absorption window holds about
#: this many records, but integrates on until absorption, so its curves
#: are longer (about 2.9k points for a 36-node pure chain).
_CURVE_POINTS = 2048

#: Hard cap on integration steps of the exact regime.
_MAX_STEPS = 500_000

#: Recorded steps the exact integrator buffers before reducing them to
#: curve statistics in one batch; bounds its scratch memory to this × N.
_RECORD_BLOCK = 256

#: Distinct exact-regime chains (and rank averages) kept solved. A
#: cross-validation gate visits its chains cyclically — protocol × load ×
#: replication, one chain per reference trace — so this must exceed the
#: gate's replication count, or least-recently-used eviction would drop
#: every chain just before its next use.
_SOLVE_CACHE_SIZE = 64


class UnsupportedProtocolError(ValueError):
    """The surrogate has no mean-field model for this protocol."""


@dataclass
class AnalyticContactModel(ContactTrace):
    """A population described by its meeting rate instead of its contacts.

    The analytic mobility kind produces one of these: an *empty* contact
    trace carrying the pairwise meeting rate β and an explicit horizon.
    Only the surrogate engine can consume it — populations of 10^5–10^6
    nodes have no materialisable contact list — and the event-driven
    engine rejects it with a clear error instead of silently simulating
    zero contacts.

    Attributes:
        beta: Pairwise meeting rate, meetings per second per pair.
    """

    beta: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.contacts:
            raise ValueError("an analytic contact model carries no explicit contacts")
        if self.beta <= 0:
            raise ValueError(f"meeting rate must be positive, got {self.beta}")
        if self.horizon is None or self.horizon <= 0:
            raise ValueError(
                "an analytic contact model needs an explicit positive horizon"
            )


def make_analytic_model(
    *, num_nodes: int, beta: float, horizon: float, name: str = ""
) -> AnalyticContactModel:
    """Build an :class:`AnalyticContactModel` (the ``analytic`` mobility kind)."""
    return AnalyticContactModel(
        [],
        num_nodes,
        horizon=horizon,
        name=name or f"analytic(n={num_nodes}, beta={beta:g})",
        beta=beta,
    )


def transmission_coins(protocol: ProtocolConfig) -> tuple[float, float]:
    """Map a protocol configuration onto the (p, q) transmission coins.

    Pure epidemic is (1, 1); coins-only P-Q is its own (p, q). Everything
    else — purging, TTLs, quota protocols — changes the *removal* side of
    the process, which the birth chain has no state for.

    Raises:
        UnsupportedProtocolError: for any protocol outside
            :data:`SUPPORTED_PROTOCOLS` (or P-Q with anti-packets).
    """
    name = protocol.protocol_name
    if name == "pure":
        return 1.0, 1.0
    if name == "pq":
        if getattr(protocol, "anti_packets", False):
            raise UnsupportedProtocolError(
                "the surrogate models coins-only P-Q; anti-packet purging "
                "has no mean-field model here"
            )
        return float(getattr(protocol, "p")), float(getattr(protocol, "q"))
    raise UnsupportedProtocolError(
        f"no mean-field model for protocol {name!r}; "
        f"supported: {', '.join(SUPPORTED_PROTOCOLS)}"
    )


# ---------------------------------------------------------------- curves


def _birth_rates(n: int, beta: float, p: float, q: float) -> np.ndarray:
    """λ_i = β (N − i)(p + q (i − 1)) for holder counts i = 1..N."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return beta * (n - i) * (p + q * (i - 1.0))


def _flat_curves(horizon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degenerate result when nothing ever spreads: one holder forever."""
    ts = np.array([0.0, horizon])
    return ts, np.ones(2), np.ones(2)


class _CurveRecords:
    """The exact integrator's curve records, reduced a block at a time.

    Each recorded step copies the holder-count distribution into a
    fixed ``_RECORD_BLOCK × N`` buffer; a full block is reduced to its
    mean and conditional-mean rows at once. Per row the products and
    sums are the ones a one-vector-at-a-time reduction would make, so
    the statistics are bit-identical to it.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.idx = np.arange(1, n + 1, dtype=np.float64)
        self.susceptible = n - self.idx
        self.block = np.empty((_RECORD_BLOCK, n), dtype=np.float64)
        self.filled = 0
        self.ts = [0.0]
        self.mean = [1.0]
        self.cond = [1.0]

    def record(self, t: float, prob: np.ndarray) -> None:
        self.ts.append(t)
        self.block[self.filled] = prob
        self.filled += 1
        if self.filled == _RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        """Reduce the buffered rows into ``mean`` and ``cond``.

        ``cond`` is E[I | destination susceptible]: given I = i holders,
        the destination (a fixed non-source node) is still susceptible
        with probability (n − i)/(n − 1) by exchangeability; the (n − 1)
        cancels between numerator and denominator.
        """
        rows = self.block[: self.filled]
        self.mean.extend((rows * self.idx).sum(axis=1).tolist())
        weights = rows * self.susceptible
        denom = weights.sum(axis=1)
        num = (weights * self.idx).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # delivery is (numerically) certain once denom vanishes
            cond = np.where(denom <= 1e-15, float(self.n), num / denom)
        self.cond.extend(cond.tolist())
        self.filled = 0


def _holder_curves_exact(
    n: int, beta: float, p: float, q: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the Kolmogorov equations of the birth chain (RK2 midpoint).

    Returns ``(ts, mean, cond)`` with ``ts[0] == 0`` and
    ``ts[-1] == horizon``; ``mean`` is E[I(t)] and ``cond`` is
    E[I(t) | destination still susceptible].

    Every ``stride``-th step is recorded, the stride sized so that the
    chain's expected absorption window 4·Σ1/λ_i holds about
    :data:`_CURVE_POINTS` records. The loop itself runs on until
    absorption, the horizon or :data:`_MAX_STEPS`, so a curve can hold
    more points than that (about 2.9k for a 36-node pure chain).

    The step works in preallocated buffers; it makes the same floating-
    point operations in the same order as a loop that allocates every
    intermediate (``tests/oracles/holder_chain.py``), so its curves are
    bit-identical to that loop's.
    """
    rates = _birth_rates(n, beta, p, q)
    if rates[0] <= 0.0:  # the lone source never transmits
        return _flat_curves(horizon)
    max_rate = float(rates.max())
    dt = 0.05 / max_rate
    # Bound the interesting window by the chain's expected absorption
    # time when every transient state drains; a stuck chain (some λ_i = 0
    # before N) keeps evolving below the block forever, so integrate the
    # whole horizon.
    transient = rates[:-1]
    if np.all(transient > 0.0):
        t_interest = min(horizon, 4.0 * float((1.0 / transient).sum()))
    else:
        t_interest = horizon
    est_steps = max(1, int(math.ceil(t_interest / dt)))
    if est_steps > _MAX_STEPS:
        dt = t_interest / _MAX_STEPS
        est_steps = _MAX_STEPS
    stride = max(1, est_steps // _CURVE_POINTS)

    prob = np.zeros(n, dtype=np.float64)
    prob[0] = 1.0
    flow = np.empty(n, dtype=np.float64)  # probability flux i → i + 1
    slope = np.empty(n, dtype=np.float64)  # dP/dt: inflow − outflow
    mid = np.empty(n, dtype=np.float64)
    scaled = np.empty(n, dtype=np.float64)
    inflow, slope_in = flow[:-1], slope[1:]
    records = _CurveRecords(n)
    t = 0.0
    step = 0
    while t < horizon and prob[-1] < 1.0 - 1e-9 and step < _MAX_STEPS:
        h = min(dt, horizon - t)
        np.multiply(rates, prob, out=flow)
        np.negative(flow, out=slope)
        np.add(slope_in, inflow, out=slope_in)
        np.multiply(0.5 * h, slope, out=scaled)
        np.add(prob, scaled, out=mid)
        np.multiply(rates, mid, out=flow)
        np.negative(flow, out=slope)
        np.add(slope_in, inflow, out=slope_in)
        np.multiply(h, slope, out=scaled)
        np.add(prob, scaled, out=prob)
        np.maximum(prob, 0.0, out=prob)  # what np.clip(prob, 0.0, None) calls
        s = float(prob.sum())
        if s > 0.0:
            np.divide(prob, s, out=prob)
        t += h
        step += 1
        if step % stride == 0:
            records.record(t, prob)
    if records.ts[-1] < t:
        records.record(t, prob)
    records.flush()
    ts, mean, cond = records.ts, records.mean, records.cond
    if ts[-1] < horizon:
        # absorbed (or step-capped) before the horizon: extend flat
        ts.append(horizon)
        mean.append(mean[-1])
        cond.append(cond[-1])
    return np.asarray(ts), np.asarray(mean), np.asarray(cond)


@functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve_exact(
    n: int, beta: float, p: float, q: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memoized :func:`_holder_curves_exact`.

    The cached arrays are read-only, so no caller can corrupt a solve
    another cell reuses.
    """
    curves = _holder_curves_exact(n, beta, p, q, horizon)
    for curve in curves:
        curve.setflags(write=False)
    return curves


def _holder_curves_fluid(
    n: int, beta: float, p: float, q: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form mean-field I(t); ``cond ≡ mean`` (the susceptible-
    destination correction is O(1/N), negligible at fluid scale).

    For q > 0 substitute J = I + (p − q)/q: the ODE becomes logistic in J
    with carrying capacity K = N + (p − q)/q and rate βq, so every (p, q)
    has a closed form; q = 0 degenerates to source-only (exponential
    approach), and p = 0 never leaves one holder.
    """
    nf = float(n)
    if p <= 0.0:
        return _flat_curves(horizon)
    # exp(-x) below 1e-15 ≈ fully saturated; no point resolving further
    tail = 34.5
    if q > 0.0:
        c = (p - q) / q
        cap = nf + c
        j0 = p / q
        ratio = max(cap / j0 - 1.0, 1e-300)
        t_sat = (math.log(ratio) + tail) / (beta * q * cap)
        t_stop = min(horizon, max(t_sat, 0.0))
        ts = np.linspace(0.0, t_stop, _CURVE_POINTS)
        if t_stop < horizon:
            ts = np.append(ts, horizon)
        with np.errstate(over="ignore"):
            j = cap / (1.0 + ratio * np.exp(-beta * q * cap * ts))
        mean = np.clip(j - c, 1.0, nf)
    else:
        t_sat = tail / (beta * p)
        t_stop = min(horizon, t_sat)
        ts = np.linspace(0.0, t_stop, _CURVE_POINTS)
        if t_stop < horizon:
            ts = np.append(ts, horizon)
        mean = nf - (nf - 1.0) * np.exp(-beta * p * ts)
    return ts, mean, mean.copy()


def holder_curves(
    n: int,
    beta: float,
    p: float,
    q: float,
    horizon: float,
    *,
    exact_limit: int = EXACT_LIMIT,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holder-count curves ``(ts, mean, cond)`` over ``[0, horizon]``.

    ``mean`` is the unconditional E[I(t)]; ``cond`` is
    E[I(t) | destination still susceptible] — identical in the fluid
    regime, distinct (and load-bearing for occupancy) at small N.

    Exact-regime chains are solved once per distinct
    ``(n, beta, p, q, horizon)`` and memoized; every call returns fresh
    copies of the cached curves.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if beta <= 0:
        raise ValueError(f"meeting rate must be positive, got {beta}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    for label, v in (("p", p), ("q", q)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{label} must be a probability, got {v}")
    if n <= exact_limit:
        ts, mean, cond = _solve_exact(n, beta, p, q, horizon)
        return ts.copy(), mean.copy(), cond.copy()
    return _holder_curves_fluid(n, beta, p, q, horizon)


# ----------------------------------------------------------- run mapping
#
# Duplication and occupancy are *per-delivery* time-averages: the metrics
# collector freezes each bundle's copy curve at that bundle's own delivery
# instant, so the DES reports E[(1/T) ∫₀ᵀ I dt] over the random delivery
# time T — not the deterministic curve integrated to the mean delay. The
# two differ by a Jensen gap (T and the trajectory are positively
# correlated), ~7% at paper scale. The rank decomposition below closes it.
#
# The destination's infection rank R is uniform on {1..N−1}: whatever the
# coins, every susceptible is equally likely to be the next infectee.
# Given R, delivery happens at T = Σ_{j≤R} E_j with independent
# E_j ~ Exp(λ_j), during which ∫₀ᵀ I dt = Σ_{j≤R} j·E_j. The ratio
# expectation follows from E[A/S] = ∫₀^∞ E[A e^{−uS}] du, which for
# independent exponentials reduces to a one-dimensional u-integral of
# G_R(u)·H_R(u) with G_R = Π_{j≤R} λ_j/(λ_j+u) (a cumulative product over
# ranks) and H_R = Σ_{j≤R} w_j/(λ_j+u) (a cumulative sum) — O(N·U) for the
# whole rank family at once.


def _rank_time_averages(rates: np.ndarray, m: int) -> tuple[float, float]:
    """Exact E[(1/T) ∫₀ᵀ I dt] and E[(1/T) ∫₀ᵀ (I − 1) dt] over ranks ≤ m.

    Args:
        rates: Transient birth rates λ_1..λ_{N−1} of the holder chain.
        m: Highest destination rank included (all of them when delivery is
            certain; the first ⌈F(H)·(N−1)⌉ when the horizon truncates).
    """
    lam = np.asarray(rates[:m], dtype=np.float64)
    if lam.size == 0 or float(lam.min()) <= 0.0:
        return 1.0, 0.0
    u = np.exp(
        np.linspace(
            math.log(float(lam.min()) * 1e-7),
            math.log(float(lam.max()) * 1e4),
            1600,
        )
    )
    inv = 1.0 / (lam[:, None] + u[None, :])
    g = np.cumprod(lam[:, None] * inv, axis=0)
    ranks = np.arange(1, lam.size + 1, dtype=np.float64)[:, None]
    h_holders = np.cumsum(ranks * inv, axis=0)
    h_relays = h_holders - np.cumsum(inv, axis=0)
    # ∫ f(u) du on the log grid is ∫ f(u)·u d(ln u)
    dln = np.diff(np.log(u))

    def integral(rows: np.ndarray) -> float:
        fu = rows.sum(axis=0) * u
        return float(np.sum(0.5 * (fu[1:] + fu[:-1]) * dln)) / lam.size

    return integral(g * h_holders), integral(g * h_relays)


@functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _exact_rank_averages(
    n: int, beta: float, p: float, q: float, m: int
) -> tuple[float, float]:
    """Memoized :func:`_rank_time_averages` of the (n, beta, p, q) chain."""
    return _rank_time_averages(_birth_rates(n, beta, p, q)[:-1], m)


def _delivery_weighted_average(
    ts: np.ndarray, curve: np.ndarray, cdf: np.ndarray
) -> float:
    """E[(1/T) ∫₀ᵀ curve dt | T ≤ horizon] with T distributed as ``cdf``.

    Fluid-regime counterpart of :func:`_rank_time_averages`: at large N the
    trajectory is deterministic and the only randomness left is the
    delivery time itself, so the running time-average weighted by the
    delivery density is the exact rank average.
    """
    seg = 0.5 * (curve[1:] + curve[:-1]) * np.diff(ts)
    running_int = np.concatenate([[0.0], np.cumsum(seg)])
    running = np.where(ts > 0.0, running_int / np.maximum(ts, 1e-300), curve[0])
    mass = float(cdf[-1] - cdf[0])
    if mass <= 0.0:
        return float(curve[0])
    return float(np.sum(0.5 * (running[1:] + running[:-1]) * np.diff(cdf))) / mass


def _trapz(xs: np.ndarray, ys: np.ndarray) -> float:
    """Trapezoid integral of a sampled curve."""
    if xs.size < 2:
        return 0.0
    return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) * 0.5)


def _clip_curve(
    ts: np.ndarray, ys: np.ndarray, t_end: float
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict a sampled curve to ``[0, t_end]`` (interpolated endpoint)."""
    if t_end >= ts[-1]:
        return ts, ys
    idx = int(np.searchsorted(ts, t_end, side="right"))
    xs = np.concatenate([ts[:idx], [t_end]])
    vals = np.concatenate([ys[:idx], [np.interp(t_end, ts, ys)]])
    return xs, vals


def _carrying_contact(config: SimulationConfig) -> float:
    """Minimum contact duration that can carry a bundle (slowest radio)."""
    tx = config.bundle_tx_time
    return float(max(tx)) if isinstance(tx, tuple) else float(tx)


def _total_capacity(config: SimulationConfig, num_nodes: int) -> float:
    caps = config.buffer_capacity
    if isinstance(caps, tuple):
        return float(sum(caps))
    return float(caps) * float(num_nodes)


def resolve_meeting_rate(trace: ContactTrace, config: SimulationConfig) -> float:
    """The β a surrogate run of ``trace`` uses.

    An :class:`AnalyticContactModel` carries β explicitly; any other trace
    is calibrated with :func:`~repro.analytic.meeting_rate.estimate_meeting_rate`,
    counting only contacts long enough to carry a bundle — the same
    opportunities the event simulator can use.
    """
    if isinstance(trace, AnalyticContactModel):
        return trace.beta
    beta = estimate_meeting_rate(trace, min_capacity=_carrying_contact(config))
    if beta <= 0.0:
        raise ValueError(
            "estimated meeting rate is zero — no contact in the trace "
            "lasts a full bundle transmission"
        )
    return beta


def surrogate_run(
    trace: ContactTrace,
    protocol: ProtocolConfig,
    flows: Sequence[Flow],
    *,
    config: SimulationConfig | None = None,
    seed: int = 0,
) -> RunResult:
    """One sweep cell on the mean-field surrogate.

    Metric mapping (mirroring the event simulator's accounting exactly):

    * delivery CDF of one bundle: F(t) = (E[I(t)] − 1)/(N − 1);
      ``delivery_ratio`` is F at the horizon.
    * load completion CDF: G = F for p = q = 1 (ample bandwidth moves all
      k bundles together), G = F^k under fractional coins (per-bundle
      coins decouple the bundles). ``success`` when G(horizon) ≥ ½;
      ``delay`` is then E[T | T ≤ horizon] and ``end_time`` — the window
      every time-average runs over — equals the delay, exactly like a
      successful DES run ends at its completion instant.
    * ``duplication_rate``: E[(1/T) ∫₀ᵀ I dt]/N over the *random* delivery
      time T — the collector freezes each bundle's copy curve at its own
      delivery instant, so the deterministic-window ratio is biased low
      (Jensen). Exact rank decomposition at small N
      (:func:`_rank_time_averages`), delivery-density weighting in the
      fluid regime; undelivered mass runs to the horizon on the
      destination-susceptible curve.
    * ``buffer_occupancy``: the same averages over relay slots only —
      k·(I − 1) of ``total capacity`` — because origin copies sit in the
      unbounded origin queue and the destination's copy leaves the relay
      pool. ``peak_occupancy`` uses E[holders at delivery] = N/2 + ½
      (the delivery rank is uniform).
    * signaling, drops, evictions: zero (unmodeled; the gate, not the
      reader, is responsible for knowing when that approximation breaks).

    Args:
        trace: Contact trace or :class:`AnalyticContactModel`.
        protocol: A surrogate-supported protocol configuration.
        flows: The cell's workload; the model covers the paper's single
            flow created at t = 0.
        config: Mechanism constants (capacities size the occupancy
            denominator).
        seed: Recorded in the result for provenance/CSV parity; the
            surrogate itself is deterministic.

    Raises:
        UnsupportedProtocolError: for protocols without a mean-field model.
        ValueError: for workloads or traces the model cannot represent.
    """
    config = config or SimulationConfig()
    n = trace.num_nodes
    config.validate_population(n)
    if config.active_faults is not None:
        raise ValueError(
            "fault injection (FaultSpec) is unsupported by the surrogate: "
            "the mean-field model has no node identity to crash or link to "
            'sever — run faulted cells with engine="des"'
        )
    if len(flows) != 1:
        raise ValueError(
            f"the surrogate models the paper's single-flow workload; got {len(flows)} flows"
        )
    flow = flows[0]
    if flow.created_at != 0.0:
        raise ValueError("the surrogate requires the flow to be created at t=0")
    if not (0 <= flow.source < n and 0 <= flow.destination < n):
        raise ValueError(f"flow {flow} references nodes outside the trace population")
    horizon = trace.horizon
    assert horizon is not None
    if horizon <= 0:
        raise ValueError("trace horizon must be positive")
    p, q = transmission_coins(protocol)
    beta = resolve_meeting_rate(trace, config)

    ts, mean_i, cond_i = holder_curves(n, beta, p, q, float(horizon))
    nf = float(n)
    k = flow.num_bundles
    frac = np.clip((mean_i - 1.0) / (nf - 1.0), 0.0, 1.0)
    f_h = float(frac[-1])
    complete = frac if (p >= 1.0 and q >= 1.0) else frac**k
    g_h = float(complete[-1])

    success = g_h >= 0.5
    if success:
        s_tail = _trapz(ts, 1.0 - complete)
        delay: float | None = (s_tail - float(horizon) * (1.0 - g_h)) / g_h
        delay = min(max(delay, 0.0), float(horizon))
        end_time = delay
    else:
        delay = None
        end_time = float(horizon)

    total_capacity = _total_capacity(config, n)
    cond_h = float(cond_i[-1])
    # Delivered bundles freeze their copy curves at their own delivery
    # instant — the rank averages below; undelivered ones run to the
    # horizon conditioned on the destination still being susceptible.
    m = (n - 1) if f_h >= 0.999 else max(1, int(round(f_h * (n - 1))))
    mean_rank = 0.5 * (m + 1)
    if f_h > 0.0:
        if n <= EXACT_LIMIT:
            avg_holders, avg_relays = _exact_rank_averages(n, beta, p, q, m)
        else:
            avg_holders = _delivery_weighted_average(ts, mean_i, frac)
            avg_relays = max(avg_holders - 1.0, 0.0)
    else:
        avg_holders, avg_relays = 1.0, 0.0
    fail_holders = _trapz(ts, cond_i) / float(horizon)
    fail_relays = max(fail_holders - 1.0, 0.0)
    duplication = (f_h * avg_holders + (1.0 - f_h) * fail_holders) / nf
    relay_copies = f_h * avg_relays + (1.0 - f_h) * fail_relays
    buffer_occupancy = min(float(k) * relay_copies / total_capacity, 1.0)
    peak_relays = f_h * (mean_rank - 1.0) + (1.0 - f_h) * max(cond_h - 1.0, 0.0)
    peak_occupancy = min(float(k) * peak_relays / total_capacity, 1.0)
    copies_made = f_h * mean_rank + (1.0 - f_h) * max(cond_h - 1.0, 0.0)

    occupancy_series: tuple[tuple[float, float], ...] | None = None
    if config.record_occupancy:
        w_ts, w_cond = _clip_curve(ts, cond_i, end_time)
        fill = np.clip(float(k) * (w_cond - 1.0) / total_capacity, 0.0, 1.0)
        stride = max(1, w_ts.size // 512)
        occupancy_series = tuple(
            (float(t), float(v)) for t, v in zip(w_ts[::stride], fill[::stride])
        )

    return RunResult(
        protocol=protocol.protocol_name,
        protocol_label=protocol.label,
        trace_name=trace.name,
        load=k,
        seed=seed,
        source=flow.source,
        destination=flow.destination,
        delivered=int(round(k * f_h)),
        delivery_ratio=f_h,
        delay=delay,
        success=success,
        buffer_occupancy=buffer_occupancy,
        peak_occupancy=peak_occupancy,
        duplication_rate=duplication,
        signaling={"anti_packet": 0, "immunity_table": 0, "summary_vector": 0},
        transmissions=int(round(k * copies_made)),
        wasted_slots=0,
        removals={"evicted": 0, "expired": 0, "immunized": 0, "ec_aged_out": 0},
        drops={},
        end_time=end_time,
        occupancy_series=occupancy_series,
    )
