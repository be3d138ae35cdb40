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
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.analytic.meeting_rate import estimate_meeting_rate
from repro.core.protocols.registry import ProtocolConfig
from repro.core.results import RunResult
from repro.core.simulation import SimulationConfig
from repro.core.workload import Flow
from repro.mobility.contact import ContactTrace
from repro.validation import require_finite, require_int

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
#: curve statistics in one batch; bounds its scratch memory to this × N
#: (or one row per chain, when a batch integrates more chains).
_RECORD_BLOCK = 256

#: Distinct exact-regime chains (and rank averages) kept solved, least
#: recently used evicted first. A cross-validation gate solves every chain
#: its surrogate pass reads in one batch before the pass
#: (:func:`solve_exact_chains`), at most this many, and its cells then
#: visit them cyclically — protocol × load × replication, one chain per
#: reference trace — so this must exceed the gate's replication count, or
#: the chains would be evicted before their cells read them.
_SOLVE_CACHE_SIZE = 64

#: Solved exact-regime chains: ``(n, beta, p, q, horizon)`` → read-only
#: ``(ts, mean, cond)``, in least-recently-used order.
_SOLVED: OrderedDict[
    tuple[int, float, float, float, float], tuple[np.ndarray, np.ndarray, np.ndarray]
] = OrderedDict()


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
    require_int("num_nodes", num_nodes, 2)
    require_finite("beta", beta)
    require_finite("horizon", horizon)
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
                f"no mean-field model for protocol {name!r} with anti-packets: "
                "the surrogate models coins-only P-Q"
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

    Each recorded step copies the holder-count distributions of the
    chains it records into a fixed ``_RECORD_BLOCK × N`` buffer, noting
    each row's chain and time; a full block is reduced to its mean and
    conditional-mean rows at once. Per row the products and sums are the
    ones a one-vector-at-a-time reduction would make, so the statistics
    are bit-identical to it.
    """

    def __init__(self, n: int, chains: int) -> None:
        self.n = n
        self.chains = chains
        self.idx = np.arange(1, n + 1, dtype=np.float64)
        self.susceptible = n - self.idx
        rows = max(_RECORD_BLOCK, chains)
        self.block = np.empty((rows, n), dtype=np.float64)
        self.owner = np.empty(rows, dtype=np.intp)
        self.times = np.empty(rows, dtype=np.float64)
        self.filled = 0
        #: reduced blocks: (chain, time, mean, cond) columns
        self.reduced: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def record(self, chains: np.ndarray, t: np.ndarray, prob: np.ndarray) -> None:
        """Buffer row ``k`` of ``prob`` as chain ``chains[k]``'s state at ``t[k]``."""
        end = self.filled + len(chains)
        if end > len(self.block):
            self.flush()
            end = len(chains)
        self.block[self.filled : end] = prob
        self.owner[self.filled : end] = chains
        self.times[self.filled : end] = t
        self.filled = end

    def flush(self) -> None:
        """Reduce the buffered rows to their ``mean`` and ``cond`` values.

        ``cond`` is E[I | destination susceptible]: given I = i holders,
        the destination (a fixed non-source node) is still susceptible
        with probability (n − i)/(n − 1) by exchangeability; the (n − 1)
        cancels between numerator and denominator.
        """
        rows = self.block[: self.filled]
        mean = (rows * self.idx).sum(axis=1)
        weights = rows * self.susceptible
        denom = weights.sum(axis=1)
        num = (weights * self.idx).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # delivery is (numerically) certain once denom vanishes
            cond = np.where(denom <= 1e-15, float(self.n), num / denom)
        owner = self.owner[: self.filled].copy()
        self.reduced.append((owner, self.times[: self.filled].copy(), mean, cond))
        self.filled = 0

    def curves(self, horizon: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each chain's ``(ts, mean, cond)``, from one holder at t = 0 to
        its last record, extended flat to the horizon."""
        self.flush()
        owner, ts, mean, cond = (np.concatenate(c) for c in zip(*self.reduced, strict=True))
        order = np.argsort(owner, kind="stable")  # per chain, in time order
        bounds = np.cumsum(np.bincount(owner, minlength=self.chains))[:-1]
        out = []
        for chain_ts, chain_mean, chain_cond in zip(
            *(np.split(column[order], bounds) for column in (ts, mean, cond)), strict=True
        ):
            chain_ts = np.concatenate(([0.0], chain_ts))
            chain_mean = np.concatenate(([1.0], chain_mean))
            chain_cond = np.concatenate(([1.0], chain_cond))
            if chain_ts[-1] < horizon:
                # absorbed (or step-capped) before the horizon: extend flat
                chain_ts = np.append(chain_ts, horizon)
                chain_mean = np.append(chain_mean, chain_mean[-1])
                chain_cond = np.append(chain_cond, chain_cond[-1])
            out.append((chain_ts, chain_mean, chain_cond))
        return out


def _holder_curves_exact(
    n: int, betas: Sequence[float], p: float, q: float, horizon: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Integrate the Kolmogorov equations of birth chains (RK2 midpoint).

    The chains share ``(n, p, q, horizon)``, one per meeting rate in
    ``betas``; one chain is a batch of one. Returns one
    ``(ts, mean, cond)`` per rate, with ``ts[0] == 0`` and
    ``ts[-1] == horizon``; ``mean`` is E[I(t)] and ``cond`` is
    E[I(t) | destination still susceptible].

    Each chain keeps its own step ``dt`` and records every ``stride``-th
    step, the stride sized so that the chain's expected absorption window
    4·Σ1/λ_i holds about :data:`_CURVE_POINTS` records. A chain steps on
    until absorption, the horizon or :data:`_MAX_STEPS`, so a curve can
    hold more points than that (about 2.9k for a 36-node pure chain).

    The chains step together as the rows of one 2-D array, and a row
    leaves the array when its chain stops, so the array stays
    C-contiguous. Per row the step makes the same floating-point
    operations in the same order as a one-chain loop that allocates every
    intermediate (``tests/oracles/holder_chain.py``), and each row sum is
    that loop's vector sum, so every chain's curves are bit-identical to
    that loop's.
    """
    out: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    live: list[int] = []  # the chains that spread, by position in betas
    rate_rows: list[np.ndarray] = []
    steps: list[float] = []
    strides: list[int] = []
    for i, beta in enumerate(betas):
        rates = _birth_rates(n, beta, p, q)
        if rates[0] <= 0.0:  # the lone source never transmits
            out[i] = _flat_curves(horizon)
            continue
        max_rate = float(rates.max())
        dt = 0.05 / max_rate
        # Bound the interesting window by the chain's expected absorption
        # time when every transient state drains; a stuck chain (some
        # λ_i = 0 before N) keeps evolving below the block forever, so
        # integrate the whole horizon.
        transient = rates[:-1]
        if np.all(transient > 0.0):
            t_interest = min(horizon, 4.0 * float((1.0 / transient).sum()))
        else:
            t_interest = horizon
        est_steps = max(1, int(math.ceil(t_interest / dt)))
        if est_steps > _MAX_STEPS:
            dt = t_interest / _MAX_STEPS
            est_steps = _MAX_STEPS
        live.append(i)
        rate_rows.append(rates)
        steps.append(dt)
        strides.append(max(1, est_steps // _CURVE_POINTS))
    if live:
        out.update(zip(live, _integrate(n, rate_rows, steps, strides, horizon), strict=True))
    return [out[i] for i in range(len(betas))]


def _integrate(
    n: int,
    rate_rows: list[np.ndarray],
    steps: list[float],
    strides: list[int],
    horizon: float,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Step the chains of :func:`_holder_curves_exact` as rows of one array."""
    chain = np.arange(len(rate_rows))  # row → position in rate_rows
    rates = np.array(rate_rows)
    dt = np.array(steps)[:, None]
    stride = np.array(strides)
    distinct = set(strides)  # the strides of the rows still stepping
    prob = np.zeros_like(rates)
    prob[:, 0] = 1.0
    t = np.zeros_like(dt)
    records = _CurveRecords(n, len(chain))
    flow = np.empty(0)  # scratch rows, allocated to prob's shape
    step = 0
    while True:
        if not (
            step < _MAX_STEPS
            and np.maximum.reduce(t, axis=None) < horizon
            and np.maximum.reduce(prob[:, -1]) < 1.0 - 1e-9
        ):
            going = (t[:, 0] < horizon) & (prob[:, -1] < 1.0 - 1e-9) & (step < _MAX_STEPS)
            # t grows every step (dt is at least t / _MAX_STEPS), so a row's
            # last state is unrecorded unless this step was a recorded one
            tail = ~going & (step % stride != 0)
            records.record(chain[tail], t[tail, 0], prob[tail])
            chain, rates, prob, dt, stride, t = (
                column[going] for column in (chain, rates, prob, dt, stride, t)
            )
            if not chain.size:
                break
            distinct = set(stride.tolist())
        if flow.shape != prob.shape:
            flow = np.empty_like(prob)  # probability flux i → i + 1
            slope = np.empty_like(prob)  # dP/dt: inflow − outflow
            mid = np.empty_like(prob)
            scaled = np.empty_like(prob)
            inflow, slope_in = flow[:, :-1], slope[:, 1:]
        h = np.minimum(dt, horizon - t)
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
        s = np.add.reduce(prob, axis=1, keepdims=True)  # prob.sum(axis=1)
        np.divide(prob, s, out=prob, where=s > 0.0)
        np.add(t, h, out=t)
        step += 1
        if len(distinct) == 1:  # the rows record together
            if step % stride[0] == 0:
                records.record(chain, t[:, 0], prob)
        elif any(step % k == 0 for k in distinct):
            due = step % stride == 0
            records.record(chain[due], t[due, 0], prob[due])
    return records.curves(horizon)


def _solve(n: int, betas: Sequence[float], p: float, q: float, horizon: float) -> None:
    """Integrate the chains of ``betas`` in one batch and memoize their
    curves, read-only, so no caller can corrupt a solve another cell
    reuses."""
    for beta, curves in zip(betas, _holder_curves_exact(n, betas, p, q, horizon), strict=True):
        for curve in curves:
            curve.setflags(write=False)
        _SOLVED[(n, beta, p, q, horizon)] = curves
        while len(_SOLVED) > _SOLVE_CACHE_SIZE:
            _SOLVED.popitem(last=False)


def _solve_exact(
    n: int, beta: float, p: float, q: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The memoized curves of one exact-regime chain, solved as a batch of
    one when no earlier solve left them in the memo."""
    key = (n, beta, p, q, horizon)
    if key not in _SOLVED:
        _solve(n, [beta], p, q, horizon)
    _SOLVED.move_to_end(key)
    return _SOLVED[key]


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holder-count curves ``(ts, mean, cond)`` over ``[0, horizon]``.

    ``mean`` is the unconditional E[I(t)]; ``cond`` is
    E[I(t) | destination still susceptible] — identical in the fluid
    regime, distinct (and load-bearing for occupancy) at small N.

    Exact-regime chains are solved once per distinct
    ``(n, beta, p, q, horizon)`` and memoized; every call returns fresh
    copies of the cached curves.
    """
    _check_chain(n, beta, p, q, horizon)
    if n <= EXACT_LIMIT:
        ts, mean, cond = _solve_exact(n, beta, p, q, horizon)
        return ts.copy(), mean.copy(), cond.copy()
    return _holder_curves_fluid(n, beta, p, q, horizon)


def _check_chain(n: int, beta: float, p: float, q: float, horizon: float) -> None:
    """Raise ``ValueError`` for a chain :func:`holder_curves` cannot model."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if beta <= 0:
        raise ValueError(f"meeting rate must be positive, got {beta}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    for label, v in (("p", p), ("q", q)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{label} must be a probability, got {v}")


def solve_exact_chains(
    cells: Iterable[tuple[ContactTrace, ProtocolConfig, SimulationConfig]],
) -> None:
    """Solve the exact-regime chains that these surrogate cells will read.

    Each ``(trace, protocol, config)`` cell's chain is keyed as
    :func:`surrogate_run` keys it. The first :data:`_SOLVE_CACHE_SIZE`
    distinct chains, in first-use order, end up most recently used in the
    memo, so none is evicted before its cell reads it: the ones missing
    are integrated in one batch per ``(n, p, q, horizon)``. A cell the
    surrogate cannot model is skipped: it raises its own error when it
    runs.
    """
    needed: dict[tuple[int, float, float, float, float], None] = {}
    for trace, protocol, config in cells:
        if trace.num_nodes > EXACT_LIMIT:
            continue
        try:
            p, q = transmission_coins(protocol)
            key = (
                trace.num_nodes,
                resolve_meeting_rate(trace, config),
                p,
                q,
                float(trace.horizon),
            )
            _check_chain(*key)
        except ValueError:
            continue
        needed[key] = None
    batches: dict[tuple[int, float, float, float], list[float]] = {}
    for key in list(needed)[:_SOLVE_CACHE_SIZE]:
        if key in _SOLVED:
            _SOLVED.move_to_end(key)
        else:
            n, beta, p, q, horizon = key
            batches.setdefault((n, p, q, horizon), []).append(beta)
    for (n, p, q, horizon), betas in batches.items():
        _solve(n, betas, p, q, horizon)


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
