"""Classical fluid and Markov models of epidemic routing.

Model (Zhang et al., Computer Networks 2007): N nodes meet pairwise as
independent Poisson processes with rate β. One source holds a bundle at
t = 0 and every holder copies it at each meeting (pure epidemic with ample
buffers and one-bundle contacts).

* The *fluid* (ODE) limit of the number of holders I(t) is logistic:

      dI/dt = β I (N − I),   I(0) = 1
      I(t)  = N / (1 + (N − 1) e^{−β N t})

* The delivery delay T_d of a randomly chosen destination satisfies

      P(T_d < t) = 1 − (N / (N − 1 + e^{β N t}))        (CDF)
      E[T_d]     = ln N / (β (N − 1))                    (mean)

* Direct transmission (no relaying — the regime TTL-crippled epidemic
  degenerates to) waits a single exponential: E[T_d] = 1/β.

These formulas assume homogeneous meeting rates; the validation tests
therefore run the simulator on a homogeneous synthetic trace and check the
measured spreading/delay curves against these functions.
"""

from __future__ import annotations

import math

import numpy as np


def _validate(n: int, beta: float) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if beta <= 0:
        raise ValueError(f"meeting rate must be positive, got {beta}")


def infected_fraction(t: float | np.ndarray, n: int, beta: float) -> np.ndarray:
    """Fluid-limit fraction of nodes holding the bundle at time ``t``.

    Args:
        t: Time(s) since the bundle was created, seconds.
        n: Population size (including the source).
        beta: Pairwise meeting rate (meetings per second per pair).

    Returns:
        I(t)/N as an array broadcast like ``t``.
    """
    _validate(n, beta)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    with np.errstate(over="ignore"):  # exp overflow saturates correctly
        return 1.0 / (1.0 + (n - 1) * np.exp(-beta * n * t_arr))


def infected_count_markov(t: float, n: int, beta: float) -> np.ndarray:
    """Exact Markov-chain distribution of the holder count at time ``t``.

    The holder count is a pure birth chain with rate λ_i = β i (N − i).
    Returns the probability vector over holder counts 1..N (index 0 ↦ one
    holder), computed by uniformisation-free forward integration of the
    Kolmogorov equations (N is small in all our studies).
    """
    _validate(n, beta)
    if t < 0:
        raise ValueError("time must be >= 0")
    rates = np.array([beta * i * (n - i) for i in range(1, n + 1)], dtype=float)
    p = np.zeros(n, dtype=float)
    p[0] = 1.0
    # integrate dp/dt = A p with a step well under the fastest rate
    max_rate = rates.max() if rates.size else 0.0
    if max_rate == 0.0 or t == 0.0:
        return p
    steps = max(1, int(math.ceil(t * max_rate * 20)))
    steps = min(steps, 2_000_000)  # hard cap; plenty at study scales
    dt = t / steps
    for _ in range(steps):
        outflow = rates * p
        p = p - dt * outflow
        p[1:] = p[1:] + dt * outflow[:-1]
        # the absorbing state keeps its inflow (rates[n-1] == 0 anyway)
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if s > 0:
        p /= s
    return p


def delivery_cdf(t: float | np.ndarray, n: int, beta: float) -> np.ndarray:
    """P(delivery delay < t) under pure epidemic relaying."""
    _validate(n, beta)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    with np.errstate(over="ignore"):  # exp overflow saturates correctly
        return 1.0 - n / (n - 1.0 + np.exp(beta * n * t_arr))


def mean_delivery_delay(n: int, beta: float) -> float:
    """E[T_d] = ln N / (β (N − 1)) for pure epidemic relaying."""
    _validate(n, beta)
    return math.log(n) / (beta * (n - 1))


def direct_mean_delay(beta: float) -> float:
    """E[T_d] = 1/β when only the source may deliver (direct transmission)."""
    if beta <= 0:
        raise ValueError(f"meeting rate must be positive, got {beta}")
    return 1.0 / beta
