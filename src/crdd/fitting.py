"""Exponential-decay fitting, bootstrap confidence intervals, and spline-based
time-averaged survival.

The decay model is f(t) = A exp(-gamma t) + c with A, c in [0, 1] and
gamma >= 0.  Fitting is a bounded Levenberg-Marquardt iteration: damped
normal-equation steps clamped to the bounds, with bound-active gradient
components masked in the convergence check (projected gradient norm <= 1e-10
or 500 iterations).

The time average integrates the natural cubic spline through the trace in
closed form.  With knots t_i, steps h_i = t_{i+1} - t_i and second
derivatives M_i (M_0 = M_n = 0, from one tridiagonal solve), piece i in its
local variable u = x - t_i is p_i + b_i u + M_i u^2/2 + (M_{i+1} - M_i)
u^3/(6 h_i), with b_i = (p_{i+1} - p_i)/h_i - h_i (2 M_i + M_{i+1})/6, and
integrates to

    p_i u + b_i u^2/2 + M_i u^3/6 + (M_{i+1} - M_i) u^4/(24 h_i).

The antiderivative is these pieces summed from t_0, with the end pieces
extended past the outer knots.  The module needs numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult", "BootstrapCI", "fit_decay", "bootstrap_mean_ci", "time_avg_survival",
]

_LOWER = np.array([0.0, 0.0, 0.0])
_UPPER = np.array([1.0, np.inf, 1.0])
_GTOL = 1e-10
_MAX_ITER = 500


@dataclass(frozen=True)
class FitResult:
    """Fitted decay parameters; tau_gamma = 1/gamma (inf when gamma = 0,
    flagged degenerate)."""

    A: float
    gamma: float
    c: float
    rss: float
    stderr: tuple
    flag: str = "ok"
    n_iter: int = 0

    @property
    def tau_gamma(self):
        return math.inf if self.gamma == 0.0 else 1.0 / self.gamma

    def predict(self, t):
        return self.A * np.exp(-self.gamma * np.asarray(t, dtype=float)) + self.c


def _as_arrays(points):
    """t and p of a trace given as ``(t, p)`` rows, shape (n, 2).

    An empty, 1-D or non-two-column trace is refused, and with it a ``(t, p)``
    pair of columns.  A 2 x 2 pair of columns cannot be told apart from two
    rows and is read as rows."""
    arr = np.asarray(list(points), dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != 2:
        raise ValueError(f"trace must be (t, p) rows of shape (n, 2); got shape {arr.shape}")
    return arr[:, 0], arr[:, 1]


def _model(params, t):
    a, g, c = params
    return a * np.exp(-g * t) + c


def _jacobian(params, t):
    a, g, _ = params
    e = np.exp(-g * t)
    return np.column_stack([e, -a * t * e, np.ones_like(t)])


def _projected_gradient(params, grad):
    pg = grad.copy()
    at_lo = (params <= _LOWER + 1e-15) & (pg > 0)
    at_hi = (params >= _UPPER - 1e-15) & (pg < 0)
    pg[at_lo | at_hi] = 0.0
    return pg


def fit_decay(points):
    """Fit A exp(-gamma t) + c to a trace of (t, p0) rows (see ``_as_arrays``).

    Requires >= 4 points with strictly increasing nonnegative t.  All-equal
    data returns a degenerate-flagged result with A = 0, gamma = 0, c = p.
    """
    t, p = _as_arrays(points)
    if len(t) < 4:
        raise ValueError("need at least 4 points")
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t must be nonnegative and strictly increasing")
    if np.ptp(p) == 0.0:
        return FitResult(0.0, 0.0, float(p[0]), 0.0, (0.0, 0.0, 0.0),
                         flag="degenerate")

    c0 = float(p.min())
    a0 = float(p.max() - p.min())
    half = max(2, len(t) // 2)
    decayed = np.clip(p[:half] - c0, 1e-12, None)
    slope = np.polyfit(t[:half], np.log(decayed), 1)[0]
    g0 = max(-float(slope), 1e-12)
    params = np.clip(np.array([a0, g0, c0]), _LOWER, np.minimum(_UPPER, 1e300))

    lam = 1e-3
    resid = _model(params, t) - p
    cost = 0.5 * float(resid @ resid)
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        jac = _jacobian(params, t)
        grad = jac.T @ resid
        if np.linalg.norm(_projected_gradient(params, grad)) <= _GTOL:
            break
        jtj = jac.T @ jac
        improved = False
        for _ in range(30):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = np.clip(params + step, _LOWER, _UPPER)
            r_cand = _model(cand, t) - p
            c_cand = 0.5 * float(r_cand @ r_cand)
            if c_cand < cost:
                params, resid, cost = cand, r_cand, c_cand
                lam = max(lam / 3, 1e-14)
                improved = True
                break
            lam *= 10
        if not improved:
            break

    rss = 2.0 * cost
    stderr = _standard_errors(params, t, rss)
    a, g, c = (float(x) for x in params)
    flag = "zero_rate" if g == 0.0 else "ok"
    return FitResult(a, g, c, float(rss), stderr, flag=flag, n_iter=n_iter)


def _standard_errors(params, t, rss):
    dof = max(len(t) - 3, 1)
    jac = _jacobian(params, t)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (rss / dof)
        var = np.clip(np.diag(cov), 0.0, None)
        return tuple(float(math.sqrt(v)) for v in var)
    except np.linalg.LinAlgError:
        return (math.nan, math.nan, math.nan)


@dataclass(frozen=True)
class BootstrapCI:
    mean: float
    lower: float
    upper: float
    level: float
    resamples: int

    def __post_init__(self):
        if not (self.lower <= self.mean <= self.upper):
            raise ValueError("bootstrap interval must bracket the mean")

    def covers(self, value):
        return self.lower <= value <= self.upper


def bootstrap_mean_ci(samples, resamples=10000, level=0.95, seed=0):
    """Percentile bootstrap of the mean with replacement, deterministic for a
    given seed."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    means = np.empty(resamples)
    chunk = max(1, min(resamples, 2 ** 22 // max(x.size, 1)))
    done = 0
    while done < resamples:
        m = min(chunk, resamples - done)
        idx = rng.integers(0, x.size, size=(m, x.size))
        means[done:done + m] = x[idx].mean(axis=1)
        done += m
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return BootstrapCI(float(x.mean()), float(lo), float(hi), level, resamples)


def _natural_second_derivatives(h, slope):
    """Second derivatives M of the natural cubic spline at its knots, with
    M[0] = M[-1] = 0: the tridiagonal system h[i-1] M[i-1] + 2 (h[i-1] + h[i])
    M[i] + h[i] M[i+1] = 6 (slope[i] - slope[i-1]), solved by elimination
    without pivoting (the matrix is strictly diagonally dominant)."""
    diag = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * np.diff(slope)
    for i in range(1, len(diag)):
        w = h[i] / diag[i - 1]
        diag[i] -= w * h[i]
        rhs[i] -= w * rhs[i - 1]
    m = np.zeros(len(h) + 1)
    for i in range(len(diag) - 1, -1, -1):
        m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
    return m


def time_avg_survival(points, T):
    """Time-averaged survival over [0, T]: natural cubic spline through the
    trace of (t, p) rows (see ``_as_arrays``), normalized by the initial
    probability, integrated exactly (see the module docstring).  Needs T
    finite and > 0, at least 2 points with finite, strictly increasing t and
    finite p, spanning [0, T]."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and > 0; got {T}")
    t, p = _as_arrays(points)
    if len(t) < 2:
        raise ValueError("need at least 2 points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise ValueError("t and p must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly increasing")
    if t[0] > 1e-12 * max(T, 1.0) or t[-1] < T * (1 - 1e-12):
        raise ValueError(f"points must span [0, T]; got [{t[0]}, {t[-1]}] for T={T}")
    if not p[0] > 0:
        raise ValueError("initial probability must be positive")
    h = np.diff(t)
    slope = np.diff(p) / h
    m = _natural_second_derivatives(h, slope)
    b = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0

    def piece_integral(i, u):
        return u * (p[i] + u * (b[i] / 2.0 + u * (m[i] / 6.0
                                                  + u * (m[i + 1] - m[i]) / (24.0 * h[i]))))

    start = np.concatenate(([0.0], np.cumsum(piece_integral(np.arange(len(h)), h))))

    def antiderivative(x):
        i = min(max(int(np.searchsorted(t, x, side="right")) - 1, 0), len(h) - 1)
        return start[i] + piece_integral(i, x - t[i])

    integral = float(antiderivative(T) - antiderivative(0.0))
    return float(integral / (T * float(p[0])))
