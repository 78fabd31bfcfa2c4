import math

import numpy as np
import pytest

from crdd import fitting
from crdd.fitting import (
    bootstrap_mean_ci, fit_decay, time_avg_survival,
)


def model_points(A, g, c, t):
    return list(zip(t, A * np.exp(-g * np.asarray(t)) + c))


def scipy_multistart_rss(t, p):
    """Lowest RSS of bounded scipy least_squares fits from 8 decay-rate starts."""
    from scipy.optimize import least_squares
    best = math.inf
    for g0 in np.logspace(-4, 1, 8):
        sol = least_squares(lambda x: x[0] * np.exp(-x[1] * t) + x[2] - p, [0.5, g0, 0.1],
                            jac=lambda x: fitting._jacobian(x, t),
                            bounds=([0.0, 0.0, 0.0], [1.0, np.inf, 1.0]),
                            x_scale=[1.0, g0, 1.0], ftol=1e-15, xtol=1e-15, gtol=1e-15)
        best = min(best, 2.0 * sol.cost)
    return best


class TestFitDecay:
    def test_noiseless_recovery(self):
        t = np.arange(0.0, 55.0, 5.0)
        fit = fit_decay(model_points(0.8, 0.1, 0.15, t))
        assert abs(fit.A - 0.8) < 1e-8
        assert abs(fit.gamma - 0.1) < 1e-8
        assert abs(fit.c - 0.15) < 1e-8
        assert fit.flag == "ok"

    def test_constant_data_degenerate(self):
        t = np.arange(0.0, 50.0, 5.0)
        fit = fit_decay([(tt, 0.3) for tt in t])
        assert fit.flag == "degenerate"
        assert fit.A == 0.0 and fit.gamma == 0.0 and fit.c == 0.3
        assert math.isinf(fit.tau_gamma)

    def test_binomial_noise_recovery(self):
        t = np.arange(0.0, 55.0, 5.0)
        truth = 0.8 * np.exp(-0.1 * t) + 0.15
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = rng.binomial(1000, truth) / 1000
            fit = fit_decay(list(zip(t, noisy)))
            errs.append(abs(fit.gamma - 0.1) / 0.1)
        assert np.median(errs) <= 0.05

    def test_converged_point_is_stationary(self):
        t = np.arange(0.0, 60.0, 4.0)
        rng = np.random.default_rng(5)
        p = 0.7 * np.exp(-0.05 * t) + 0.2 + rng.normal(0, 0.01, len(t))
        fit = fit_decay(list(zip(t, p)))
        params = np.array([fit.A, fit.gamma, fit.c])
        resid = fit.A * np.exp(-fit.gamma * t) + fit.c - p
        grad = fitting._jacobian(params, t).T @ resid
        # projected gradient on A, c in [0, 1], gamma >= 0: a component that
        # pushes outward at an active bound is not a failure to converge
        lower, upper = np.array([0.0, 0.0, 0.0]), np.array([1.0, np.inf, 1.0])
        pinned = ((params <= lower + 1e-15) & (grad > 0)) | ((params >= upper - 1e-15) & (grad < 0))
        assert np.linalg.norm(np.where(pinned, 0.0, grad)) <= 1e-10

    def test_global_minimum_on_drag_sim_trace(self):
        # state-averaged SIM-XY4-2 trace of the DRAG plan (SIM-XY4-2, CR-XY4,
        # CR-(XY4,UR12) with gaussian_drag pulses) at seed 20250810: its RSS
        # profile has a local minimum near tau_gamma = 5.7e-4 s (RSS 0.6113)
        # and the global one near 3.9e-6 s
        t = 1.3656e-06 * 2.0 ** np.arange(12)
        t = np.append(t, 0.003728088)
        p = [0.9775, 0.9089, 0.69935, 0.30295, 0.1997, 0.9263, 0.74375, 0.44, 0.44935,
             0.36955, 0.3369, 0.177, 0.20425]
        fit = fit_decay(list(zip(t, p)))
        assert fit.rss < 0.57
        assert fit.tau_gamma == pytest.approx(3.88e-6, rel=0.01)
        assert fit.flag == "ok"

    def test_matches_scipy_multistart(self):
        t = np.concatenate(([0.0], 2.0 ** np.arange(10)))
        rng = np.random.default_rng(21)
        # at noise 0.2 and 0.5 some of these traces have two local minima
        for sigma in (0.05, 0.2, 0.5) * 3:
            A, g, c = rng.uniform(0.2, 1.0), 10.0 ** rng.uniform(-2.5, 0.0), rng.uniform(0.0, 0.4)
            p = np.clip(A * np.exp(-g * t) + c + rng.normal(0, sigma, len(t)), 0.0, 1.0)
            best = scipy_multistart_rss(t, p)
            assert abs(fit_decay(list(zip(t, p))).rss - best) <= 1e-9 * best

    @pytest.mark.parametrize("A, g, c, pinned", [
        (0.5, 0.1, 1.2, {"c": 1.0}),
        (1.4, 0.1, -0.1, {"A": 1.0, "c": 0.0}),
    ], ids=["c_at_one", "A_at_one_c_at_zero"])
    def test_pinned_bounds_match_scipy(self, A, g, c, pinned):
        t = np.arange(0.0, 55.0, 5.0)
        p = A * np.exp(-g * t) + c
        fit = fit_decay(list(zip(t, p)))
        for name, value in pinned.items():
            assert getattr(fit, name) == value
        best = scipy_multistart_rss(t, p)
        assert abs(fit.rss - best) <= 1e-9 * best

    def test_refit_is_stable(self):
        t = np.arange(0.0, 60.0, 4.0)
        p = 0.7 * np.exp(-0.05 * t) + 0.2
        f1 = fit_decay(list(zip(t, p)))
        f2 = fit_decay(list(zip(t, f1.A * np.exp(-f1.gamma * t) + f1.c)))
        assert abs(f1.A - f2.A) < 1e-7
        assert abs(f1.gamma - f2.gamma) < 1e-7

    def test_monotone_model_sanity(self):
        t = np.linspace(0.0, 40.0, 12)
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, g, c = rng.uniform(0.3, 0.9), rng.uniform(0.02, 0.3), rng.uniform(0, 0.1)
            noisy = np.clip(a * np.exp(-g * t) + c + rng.normal(0, 0.01, len(t)), 0, 1)
            fit = fit_decay(list(zip(t, noisy)))
            if fit.A > 0.05 and fit.gamma > 0:
                assert fit.A + fit.c >= fit.A * np.exp(-fit.gamma * t[-1]) + fit.c

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_decay([(0, 1), (1, 0.9), (2, 0.8)])
        with pytest.raises(ValueError):
            fit_decay([(0, 1), (2, 0.9), (1, 0.8), (3, 0.7)])

    @pytest.mark.parametrize("points", [
        [(0, 1), (1, 0.5), (2, math.nan), (3, 0.2)],
        [(0, 1), (1, 0.5), (2, math.inf), (3, 0.2)],
        [(0, 1), (1, 0.5), (2, 0.3), (math.inf, 0.2)],
    ], ids=["nan_p", "inf_p", "inf_t"])
    def test_refuses_non_finite(self, points):
        with pytest.raises(ValueError, match="t and p must be finite"):
            fit_decay(points)

    def test_counts_profile_evaluations(self):
        t = np.arange(0.0, 55.0, 5.0)
        fit = fit_decay(model_points(0.8, 0.1, 0.15, t))
        # 32 grid points per decade over [1e-4/50, 50/5], plus gamma = 0
        assert fit.n_iter > 1 + 32 * math.log10(10.0 / 2e-6)

    def test_rising_data_flags_zero_rate(self):
        t = np.arange(0.0, 50.0, 5.0)
        fit = fit_decay(list(zip(t, 0.2 + 0.01 * t)))
        assert fit.gamma == 0.0
        assert fit.flag == "zero_rate"
        assert math.isinf(fit.tau_gamma)

    def test_stderr_reported(self):
        t = np.arange(0.0, 55.0, 5.0)
        rng = np.random.default_rng(0)
        p = 0.8 * np.exp(-0.1 * t) + 0.1 + rng.normal(0, 0.005, len(t))
        fit = fit_decay(list(zip(t, p)))
        assert len(fit.stderr) == 3
        assert all(s >= 0 for s in fit.stderr)


class TestCharacteristicTime:
    def test_reciprocal(self):
        fit = fit_decay(model_points(0.8, 0.2e6, 0.1, np.linspace(0, 2e-5, 10)))
        assert fit.tau_gamma == pytest.approx(5e-6, rel=1e-6)

    def test_zero_rate_flagged_infinite(self):
        t = np.arange(0.0, 50.0, 5.0)
        fit = fit_decay([(tt, 0.42) for tt in t])
        assert math.isinf(fit.tau_gamma)


class TestBootstrap:
    def test_all_equal(self):
        ci = bootstrap_mean_ci([0.7] * 20, resamples=2000, seed=0)
        assert ci.lower == ci.upper == ci.mean
        assert ci.mean == pytest.approx(0.7)

    def test_binomial_closed_form(self):
        samples = [0.0] * 500 + [1.0] * 500
        ci = bootstrap_mean_ci(samples, resamples=10000, seed=1)
        sigma = 0.5 / math.sqrt(1000)
        assert ci.mean == pytest.approx(0.5)
        assert ci.lower == pytest.approx(0.5 - 1.96 * sigma, abs=3e-3)
        assert ci.upper == pytest.approx(0.5 + 1.96 * sigma, abs=3e-3)

    def test_seed_determinism(self):
        samples = list(np.random.default_rng(0).uniform(size=50))
        a = bootstrap_mean_ci(samples, seed=7)
        b = bootstrap_mean_ci(samples, seed=7)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_percentile_interval_need_not_bracket_the_mean(self):
        samples = np.random.default_rng(1000).uniform(size=1000)
        ci = bootstrap_mean_ci(samples, resamples=1, level=0.5, seed=2)
        assert ci.lower == ci.upper
        assert not ci.lower <= ci.mean <= ci.upper

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_samples(self, bad):
        # refused before resampling, so no numpy warning comes first
        with pytest.raises(ValueError, match="finite"):
            bootstrap_mean_ci([0.1, bad, 0.9])

    @pytest.mark.parametrize("kwargs, name", [
        ({"resamples": 0}, "resamples"),
        ({"resamples": -3}, "resamples"),
        ({"resamples": 2.5}, "resamples"),
        ({"resamples": True}, "resamples"),
        ({"level": 1.5}, "level"),
        ({"level": 1.0}, "level"),
        ({"level": 0.0}, "level"),
        ({"level": math.nan}, "level"),
    ], ids=["resamples_zero", "resamples_negative", "resamples_float", "resamples_bool",
            "level_above_one", "level_one", "level_zero", "level_nan"])
    def test_refuses_unusable_arguments(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            bootstrap_mean_ci([0.1, 0.5, 0.9], **kwargs)


class TestTimeAvgSurvival:
    def test_exponential(self):
        t = np.linspace(0.0, 1.0, 60)
        avg = time_avg_survival(list(zip(t, np.exp(-t))), 1.0)
        assert avg == pytest.approx(1 - math.exp(-1), rel=0.01)

    def test_constant_normalizes_to_one(self):
        t = np.linspace(0.0, 4.0, 15)
        assert time_avg_survival([(tt, 0.37) for tt in t], 4.0) == pytest.approx(1.0)

    def test_linear_decay(self):
        t = np.linspace(0.0, 2.0, 21)
        avg = time_avg_survival(list(zip(t, 1 - t / 2)), 2.0)
        assert avg == pytest.approx(0.5, abs=1e-6)

    def test_matches_closed_form_for_decay_model(self):
        A, g, c, T = 0.7, 0.8, 0.25, 3.0
        t = np.linspace(0.0, T, 20)
        avg = time_avg_survival(model_points(A, g, c, t), T)
        closed = ((A / g) * (1 - math.exp(-g * T)) + c * T) / ((A + c) * T)
        assert avg == pytest.approx(closed, rel=0.01)

    def test_extrapolation_error(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="span"):
            time_avg_survival(list(zip(t, np.exp(-t))), 2.0)

    @pytest.mark.parametrize("n", [2, 3, 20])
    @pytest.mark.parametrize("window", ["ends_at_T", "past_T", "late_start"])
    def test_matches_scipy_natural_spline(self, window, n):
        from scipy.interpolate import CubicSpline
        rng = np.random.default_rng(n)
        for _ in range(40):
            T = 10.0 ** rng.uniform(-6, 1)
            t = np.concatenate(([0.0], np.sort(rng.uniform(0, T, n - 2)), [T]))
            if window == "past_T":
                t[-1] = T * rng.uniform(1.01, 2.0)
            elif window == "late_start":
                t[0] = rng.uniform(0.01, 1.0) * 1e-12 * T
            A, g, c = rng.uniform(0.3, 0.8), rng.uniform(0.5, 5.0), rng.uniform(0.05, 0.2)
            p = A * np.exp(-g * t / T) + c + rng.normal(0, 0.01, n)
            spline = CubicSpline(t, p, bc_type="natural").antiderivative()
            ref = float(spline(T) - spline(0.0)) / (T * p[0])
            avg = time_avg_survival(list(zip(t, p)), T)
            assert type(avg) is float
            assert abs(avg - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("t, p, T, message", [
        ([0.0, 0.5, 1.0], [1.0, 0.8, 0.7], 0.0, "T must be finite and > 0"),
        ([0.0, 0.5, 1.0], [1.0, 0.8, 0.7], math.nan, "T must be finite and > 0"),
        ([0.0, 0.5, 1.0], [1.0, 0.8, 0.7], -1.0, "T must be finite and > 0"),
        ([0.0, 1.0, 0.5], [1.0, 0.8, 0.7], 1.0, "strictly increasing"),
        ([0.0, 0.5, 0.5, 1.0], [1.0, 0.8, 0.8, 0.7], 1.0, "strictly increasing"),
        ([0.0, 0.5, 1.0], [1.0, math.nan, 0.7], 1.0, "t and p must be finite"),
        ([0.0, 0.5, 1.0], [1.0, math.inf, 0.7], 1.0, "t and p must be finite"),
        ([0.0], [1.0], 1.0, "at least 2 points"),
    ], ids=["T_zero", "T_nan", "T_negative", "unsorted_t", "duplicated_t", "nan_p",
            "inf_p", "single_point"])
    def test_refuses_unusable_input(self, t, p, T, message):
        with pytest.raises(ValueError, match=message):
            time_avg_survival(list(zip(t, p)), T)


class TestRowsOnlyTrace:
    ROWS = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]

    @pytest.mark.parametrize("points", [
        [],
        [0.0, 1.0, 2.0, 3.0],
        [(t, p, 9.0) for t, p in ROWS],
        tuple(zip(*ROWS)),
    ], ids=["empty", "one_dim", "three_columns", "column_pair"])
    @pytest.mark.parametrize("use", ["fit_decay", "time_avg_survival"])
    def test_refuses_non_rows(self, use, points):
        with pytest.raises(ValueError, match=r"\(t, p\) rows"):
            if use == "fit_decay":
                fit_decay(points)
            else:
                time_avg_survival(points, 3.0)

    def test_two_by_two_reads_as_rows(self):
        # indistinguishable from a 2 x 2 column pair, and read as two rows
        rows = [(0.0, 0.9), (0.5, 0.6)]
        assert time_avg_survival(np.array(rows), 0.5) == time_avg_survival(rows, 0.5)
        assert time_avg_survival(rows, 0.5) == pytest.approx(0.8333333333333333, rel=1e-12)
