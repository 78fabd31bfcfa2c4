"""Exponential-decay fitting, bootstrap confidence intervals, and spline-based
time-averaged survival.

The decay model is f(t) = A exp(-gamma t) + c with A, c in [0, 1] and
gamma >= 0, fitted by variable projection (Golub & Pereyra 1973).  For fixed
gamma the model is linear in (A, c), and the best (A, c) in [0, 1]^2 is the
interior least-squares solution if feasible, else the best of the four edges.
That leaves the profile RSS(gamma), scanned at gamma = 0 and 32 points per
decade from 1e-4/t_max to 50/min(dt).  The best cell is then cut to float
resolution at the sign change of the profile slope dRSS/dgamma =
-2 A sum(t exp(-gamma t) r), with r the residuals at the best (A, c).

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
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult", "BootstrapCI", "fit_decay", "bootstrap_mean_ci", "time_avg_survival",
]

@dataclass(frozen=True)
class FitResult:
    """Fitted decay parameters; tau_gamma = 1/gamma (inf when gamma = 0,
    flagged zero_rate).  ``n_iter`` counts the decay rates at which the
    profile was evaluated."""

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


def _as_arrays(points):
    """t and p of a trace given as ``(t, p)`` rows, shape (n, 2).

    An empty, 1-D or non-two-column trace is refused, and with it a ``(t, p)``
    pair of columns.  A 2 x 2 pair of columns cannot be told apart from two
    rows and is read as rows.  A non-finite t or p is refused."""
    arr = np.asarray(list(points), dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != 2:
        raise ValueError(f"trace must be (t, p) rows of shape (n, 2); got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("t and p must be finite")
    return arr[:, 0], arr[:, 1]


def _jacobian(params, t):
    a, g, _ = params
    e = np.exp(-g * t)
    return np.column_stack([e, -a * t * e, np.ones_like(t)])


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _profile(t, p, gamma):
    """Best (A, c) in [0, 1]^2, RSS and dRSS/dgamma at each rate in ``gamma``.

    The interior least-squares solution competes only where it is feasible;
    the four edges A = 0, A = 1, c = 0 and c = 1 always compete, each with
    its clipped one-variable solution.  RSS is summed from residuals."""
    e = np.exp(-np.outer(gamma, t))
    e_mean, p_mean = e.mean(axis=1), p.mean()
    ec = e - e_mean[:, None]
    a_in = _ratio(ec @ (p - p_mean), np.einsum("ij,ij->i", ec, ec))
    c_in = p_mean - a_in * e_mean
    ee, zero = np.einsum("ij,ij->i", e, e), np.zeros_like(gamma)
    a = np.array([a_in, zero, zero + 1.0, _ratio(e @ p, ee), _ratio(e @ (p - 1.0), ee)])
    c = np.array([c_in, zero + p_mean, p_mean - e_mean, zero, zero + 1.0])
    a[1:], c[1:] = np.clip(a[1:], 0.0, 1.0), np.clip(c[1:], 0.0, 1.0)
    resid = a[:, :, None] * e + c[:, :, None] - p
    rss = np.einsum("kij,kij->ki", resid, resid)
    rss[0, (a_in < 0.0) | (a_in > 1.0) | (c_in < 0.0) | (c_in > 1.0)] = np.inf
    best, cols = np.argmin(rss, axis=0), np.arange(len(gamma))
    a, r = a[best, cols], resid[best, cols]
    return a, c[best, cols], rss[best, cols], -2.0 * a * np.einsum("ij,ij->i", t * e, r)


def fit_decay(points):
    """Fit A exp(-gamma t) + c to a trace of (t, p0) rows (see ``_as_arrays``)
    by the global search of the module docstring.  Among equal RSS the
    smallest gamma wins, so data that never decays gives gamma = 0, flagged
    zero_rate.  Requires >= 4 points with strictly increasing nonnegative t.
    All-equal data returns a degenerate-flagged result with A = 0, gamma = 0,
    c = p."""
    t, p = _as_arrays(points)
    if len(t) < 4:
        raise ValueError("need at least 4 points")
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t must be nonnegative and strictly increasing")
    if np.ptp(p) == 0.0:
        return FitResult(0.0, 0.0, float(p[0]), 0.0, (0.0, 0.0, 0.0),
                         flag="degenerate")

    lo, hi = math.log10(1e-4 / t[-1]), math.log10(50.0 / np.diff(t).min())
    gamma = np.append(0.0, np.logspace(lo, hi, math.ceil(32 * (hi - lo)) + 1))
    seen = [(gamma, *_profile(t, p, gamma)[:3])]
    k = int(np.argmin(seen[0][3]))
    left, right = gamma[max(k - 1, 0)], gamma[min(k + 1, len(gamma) - 1)]
    # Each round cuts the bracket 33-fold where the slope first turns
    # nonnegative; 13 rounds (33**13 > 2**64) reach float resolution.
    for _ in range(13):
        mid = np.linspace(left, right, 34)[1:-1]
        mid = mid[(mid > left) & (mid < right)]
        if mid.size == 0:
            break
        *fit, slope = _profile(t, p, mid)
        seen.append((mid, *fit))
        j = np.append(np.flatnonzero(slope >= 0.0), mid.size)[0]
        left, right = np.concatenate(([left], mid, [right]))[j:j + 2]
    g, a, c, rss = (np.concatenate(col) for col in zip(*seen))
    i = np.lexsort((g, rss))[0]
    stderr = _standard_errors((a[i], g[i], c[i]), t, rss[i])
    return FitResult(float(a[i]), float(g[i]), float(c[i]), float(rss[i]), stderr,
                     flag="zero_rate" if g[i] == 0.0 else "ok", n_iter=len(g))


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
        # a percentile interval need not bracket the sample mean
        if not self.lower <= self.upper:
            raise ValueError("bootstrap interval needs lower <= upper")


def bootstrap_mean_ci(samples, resamples=10000, level=0.95, seed=0):
    """Percentile bootstrap of the mean with replacement, deterministic for a
    given seed.  Needs an integer ``resamples`` >= 1, ``level`` in (0, 1)
    and at least 2 samples, all finite."""
    if (not isinstance(resamples, numbers.Integral) or isinstance(resamples, bool)
            or resamples < 1):
        raise ValueError(f"resamples must be an integer >= 1, got {resamples!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    x = np.asarray(list(samples), dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite (no NaN or inf)")
    rng = np.random.default_rng(seed)
    chunk = max(1, 2 ** 22 // x.size)  # resamples drawn per batch, for bounded memory
    means = np.concatenate([
        x[rng.integers(0, x.size, size=(min(chunk, resamples - done), x.size))].mean(axis=1)
        for done in range(0, resamples, chunk)])
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
    finite and > 0, at least 2 points with strictly increasing t spanning
    [0, T] (see ``_as_arrays``)."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and > 0; got {T}")
    t, p = _as_arrays(points)
    if len(t) < 2:
        raise ValueError("need at least 2 points")
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
