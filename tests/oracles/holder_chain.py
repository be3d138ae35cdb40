"""Reference integrator for the surrogate's exact regime.

:func:`holder_curves_exact` is the original stepping loop of
``repro.analytic.surrogate._holder_curves_exact``: RK2 midpoint steps that
allocate fresh arrays on every step and reduce every recorded step one
probability vector at a time. The production integrator reuses buffers
and reduces its records in blocks; it must reproduce this loop bit for
bit, which ``tests/analytic/test_holder_chain.py`` asserts.

The step cap and the record target are read from the surrogate module at
call time, so a test that monkeypatches them changes both integrators.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analytic import surrogate
from repro.analytic.surrogate import _birth_rates, _flat_curves


def _conditional_mean(prob: np.ndarray, idx: np.ndarray, n: int) -> float:
    """E[I | destination susceptible] from the holder-count distribution."""
    weights = prob * (n - idx)
    denom = float(weights.sum())
    if denom <= 1e-15:  # delivery is (numerically) certain by now
        return float(n)
    return float((weights * idx).sum() / denom)


def holder_curves_exact(
    n: int, beta: float, p: float, q: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the Kolmogorov equations of the birth chain (RK2 midpoint).

    Returns ``(ts, mean, cond)`` exactly as the production integrator must.
    """
    _MAX_STEPS = surrogate._MAX_STEPS
    _CURVE_POINTS = surrogate._CURVE_POINTS
    rates = _birth_rates(n, beta, p, q)
    if rates[0] <= 0.0:  # the lone source never transmits
        return _flat_curves(horizon)
    max_rate = float(rates.max())
    dt = 0.05 / max_rate
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

    idx = np.arange(1, n + 1, dtype=np.float64)
    prob = np.zeros(n, dtype=np.float64)
    prob[0] = 1.0
    ts = [0.0]
    mean = [1.0]
    cond = [1.0]
    t = 0.0
    step = 0
    while t < horizon and prob[-1] < 1.0 - 1e-9 and step < _MAX_STEPS:
        h = min(dt, horizon - t)
        flow = rates * prob
        k1 = -flow
        k1[1:] += flow[:-1]
        mid = prob + (0.5 * h) * k1
        flow = rates * mid
        k2 = -flow
        k2[1:] += flow[:-1]
        prob = prob + h * k2
        np.clip(prob, 0.0, None, out=prob)
        s = float(prob.sum())
        if s > 0.0:
            prob /= s
        t += h
        step += 1
        if step % stride == 0:
            ts.append(t)
            mean.append(float((prob * idx).sum()))
            cond.append(_conditional_mean(prob, idx, n))
    if ts[-1] < t:
        ts.append(t)
        mean.append(float((prob * idx).sum()))
        cond.append(_conditional_mean(prob, idx, n))
    if ts[-1] < horizon:
        # absorbed (or step-capped) before the horizon: extend flat
        ts.append(horizon)
        mean.append(mean[-1])
        cond.append(cond[-1])
    return np.asarray(ts), np.asarray(mean), np.asarray(cond)
