"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with the measured figure of merit."""
import math
import time

import numpy as np

from crdd.control import (
    bang_bang_trace, chi1, chi2, classify_symmetry, control_trace,
    paired_traces, propagate, verify_first_order,
)
from crdd.experiment import default_plan, fit_dataset, run_experiment, summarize, write_fits_csv
from crdd.fitting import bootstrap_mean_ci, fit_decay, time_avg_survival
from crdd.sequences import (
    PulseShape, QubitGraph, Segment, Sequence, cr_dd, named_phases, sim_dd,
    two_color,
)
from crdd.sim import DeviceModel, evolve, product_state

PI = math.pi
SQUARE = PulseShape.square()
DRAG = PulseShape.gaussian_drag()
IDEAL = PulseShape.ideal()
S = 256


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_suppression_endpoints():
    t0 = time.time()
    worst = 0.0
    cases = []
    for shape in (DRAG, SQUARE):
        for label, sched in [
            ("CR-XY4", cr_dd("XY4", tau_p=1.0, shape=shape)),
            ("CR-KDD", cr_dd("KDD", tau_p=1.0, shape=shape)),
            ("CR-UR10", cr_dd("UR10", tau_p=1.0, shape=shape)),
            ("CR-RGA64c", cr_dd("RGA64c", tau_p=1.0, shape=shape)),
            ("CR-(XY4,UR12)", cr_dd("XY4", "UR12", tau_p=1.0, shape=shape)),
            ("CR-XY4-2S", cr_dd("XY4", tau_p=1.0, shape=shape, k=2, mode="symmetric")),
            ("CR-XY4-4S", cr_dd("XY4", tau_p=1.0, shape=shape, k=4, mode="symmetric")),
            ("CR-XY4-2A", cr_dd("XY4", tau_p=1.0, shape=shape, k=2, mode="asymmetric")),
            ("CR-XY4-4A", cr_dd("XY4", tau_p=1.0, shape=shape, k=4, mode="asymmetric")),
        ]:
            tr, tb = paired_traces(sched, S)
            rel = chi2(tr, tb).max_abs() / sched.duration
            worst = max(worst, rel)
            cases.append((label, shape.kind, rel))
    ok = worst <= 1e-8

    seq = sim_dd("XY4", 2, 1.0, SQUARE)
    c2 = chi2(control_trace(seq, S), control_trace(seq, S))
    zz = c2.entry("Z", "Z")
    closed_form = 4 * 1.0 + 2 * 1.0
    ok_sim = abs(zz - closed_form) <= 1e-6 * seq.duration
    failed = {(a, b) for _, a, b, _, p in
              verify_first_order(seq, S).two_local_failures()}
    ok_sim = ok_sim and {("X", "X"), ("Z", "Z")} <= failed
    elapsed = time.time() - t0
    report(1, ok and ok_sim and elapsed <= 60,
           f"max |chi2|/tau_c = {worst:.2e} over {len(cases)} CR schedules; "
           f"SIM-XY4-2 chi2_ZZ = {zz:.9f} (closed form {closed_form}); "
           f"runtime {elapsed:.1f}s")


def test_criterion_2_one_local_patterns():
    worst = 0.0
    for base, allowed in (("XY4", {(0, 2), (1, 2)}),
                          ("UR10", {(0, 0), (0, 1), (1, 0), (1, 1)})):
        sched = cr_dd(base, tau_p=1.0, shape=DRAG)
        for trace in paired_traces(sched, S):
            c = chi1(trace)
            off = max(abs(c.values[m, a]) for m, a in np.ndindex(3, 3)
                      if (m, a) not in allowed)
            worst = max(worst, off / trace.duration)
    report(2, worst <= 1e-8, f"max off-pattern |chi1|/tau_c = {worst:.2e}")


def test_criterion_3_residual_ratio():
    # equal pulse counts: five CR-XY4 cycles vs two CR-UR10 cycles, same envelope
    vals = {}
    for base, reps in (("XY4", 5), ("UR10", 2)):
        phases = named_phases(base) * reps
        sched_base = cr_dd(base, tau_p=1.0, shape=SQUARE)
        sched = type(sched_base)(Sequence(sched_base.red.segments * reps),
                                 Sequence(sched_base.blue.segments * reps))
        tr, _ = paired_traces(sched, S)
        vals[base] = chi1(tr).max_abs()
    ratio = vals["UR10"] / vals["XY4"]
    report(3, 1.48 <= ratio <= 2.22,
           f"max|chi1(CR-UR10)| / max|chi1(CR-XY4)| = {ratio:.4f} at equal pulse count")


def test_criterion_4_symmetry_classes():
    worst = 0.0
    tr, _ = paired_traces(cr_dd("XY4", tau_p=1.0, shape=DRAG), S)
    zz = classify_symmetry(tr, "Z", "Z")
    zx = classify_symmetry(tr, "Z", "X")
    ok = zz.flag("displacement_symmetric") and zx.flag("displacement_antisymmetric")
    worst = max(zz.residuals["displacement_symmetric"],
                zx.residuals["displacement_antisymmetric"])
    sched = cr_dd("XY4", "UR12", tau_p=1.0, shape=DRAG)
    tb = control_trace(sched.blue, S)
    for alpha in ("X", "Y"):
        comp = classify_symmetry(tb, "Z", alpha)
        ok = ok and comp.flag("displacement_antisymmetric")
        worst = max(worst, comp.residuals["displacement_antisymmetric"])
    report(4, ok and worst <= 1e-6, f"max flagged residual = {worst:.2e}")


def test_criterion_5_magnus_scaling():
    t0 = time.time()
    graph = two_color(QubitGraph.path(2))
    psi0 = product_state(("+x", "+x"))
    sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
    j_tau_c = np.logspace(-4, -2, 7)
    amp_sim, amp_cr = [], []
    for jt in j_tau_c:
        dev = DeviceModel(graph, np.array([jt / 4.0]), np.zeros((2, 3)), 1.0)
        psi = evolve(dev, sim_dd("XY4", 2, 1.0, IDEAL), psi0=psi0,
                     samples_per_pulse=512)
        amp_sim.append(np.linalg.norm(psi - np.vdot(psi0, psi) * psi0))
        dev = DeviceModel(graph, np.array([jt / 8.0]), np.zeros((2, 3)), 1.0)
        psi = evolve(dev, [sched.red, sched.blue], psi0=psi0, samples_per_pulse=512)
        amp_cr.append(np.linalg.norm(psi - np.vdot(psi0, psi) * psi0))
    slope_sim = np.polyfit(np.log(j_tau_c), np.log(amp_sim), 1)[0]
    slope_cr = np.polyfit(np.log(j_tau_c), np.log(amp_cr), 1)[0]
    elapsed = time.time() - t0
    ok = abs(slope_sim - 1.0) <= 0.1 and abs(slope_cr - 2.0) <= 0.1
    report(5, ok and elapsed <= 60,
           f"error-amplitude slopes: SIM-XY4 {slope_sim:.3f} (ideal pulses), "
           f"CR-XY4 {slope_cr:.3f}; runtime {elapsed:.1f}s")


def test_criterion_6_simulated_3x_analog():
    t0 = time.time()
    plan = default_plan()
    result = run_experiment(plan)
    assert not result.failures, result.failures
    fits = fit_dataset(result.row_dicts())
    table = summarize(fits)
    ratio = table.ratio("XY4", "cr_over_sim")
    elapsed = time.time() - t0
    report(6, ratio >= 3.0 and elapsed <= 600,
           f"median tau_gamma(CR-XY4)/tau_gamma(SIM-XY4-2) = {ratio:.1f} on the "
           f"default crosstalk-dominant device; runtime {elapsed:.1f}s")


def test_criterion_7_fit_recovery():
    t = np.arange(0.0, 55.0, 5.0)
    truth = 0.8 * np.exp(-0.1 * t) + 0.15
    fit = fit_decay(list(zip(t, truth)))
    errs_noiseless = max(abs(fit.A - 0.8), abs(fit.gamma - 0.1), abs(fit.c - 0.15))
    ok_noiseless = errs_noiseless <= 1e-8

    rel = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = rng.binomial(1000, truth) / 1000
        rel.append(abs(fit_decay(list(zip(t, noisy))).gamma - 0.1) / 0.1)
    med = float(np.median(rel))
    ok_noise = med <= 0.05

    trials, hits = 300, 0
    master = np.random.default_rng(2024)
    for i in range(trials):
        samples = master.uniform(0.0, 1.0, 100)
        ci = bootstrap_mean_ci(samples, resamples=10000, level=0.95, seed=i)
        if ci.lower <= 0.5 <= ci.upper:
            hits += 1
    coverage = hits / trials
    ok_boot = coverage >= 0.93
    report(7, ok_noiseless and ok_noise and ok_boot,
           f"noiseless max err {errs_noiseless:.1e}; median gamma err {med:.3f}; "
           f"bootstrap coverage {coverage:.3f}")


def test_criterion_8_spline_average():
    A, g, c, T = 0.8, 0.35, 0.15, 4.0
    t = np.linspace(0.0, T, 20)
    avg = time_avg_survival(list(zip(t, A * np.exp(-g * t) + c)), T)
    closed = ((A / g) * (1 - math.exp(-g * T)) + c * T) / ((A + c) * T)
    err = abs(avg - closed) / closed
    report(8, err <= 0.01, f"spline average {avg:.6f} vs closed form {closed:.6f} "
                           f"(rel err {err:.2e})")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        plan = default_plan()
        results_path = tmp_path / f"results_{tag}.csv"
        result = run_experiment(plan, out_path=results_path)
        fits = fit_dataset(result.row_dicts())
        fits_path = tmp_path / f"fits_{tag}.csv"
        write_fits_csv(fits, fits_path)
        summary_path = tmp_path / f"summary_{tag}.csv"
        summarize(fits).to_csv(summary_path)
        outputs.append((results_path.read_bytes(), fits_path.read_bytes(),
                        summary_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(9, ok, f"two seeded pipeline runs produced byte-identical results "
                  f"({len(outputs[0][0])} bytes), fits and summary CSVs")


def test_criterion_10_oracle_equivalence():
    # (a) square-width shrink onto the bang-bang toggling-frame oracle
    oracle_segs = []
    for ph in named_phases("XY4"):
        oracle_segs.append(Segment.for_pulse(ph, 0.0, IDEAL))
        oracle_segs.append(Segment.delay(1.0))
    oracle = chi2(*2 * (bang_bang_trace(Sequence(tuple(oracle_segs)), 64),)).values
    errs = []
    for w in (1.0, 0.5, 0.25):
        segs = []
        for ph in named_phases("XY4"):
            segs.append(Segment.for_pulse(ph, w, SQUARE))
            segs.append(Segment.delay(1.0))
        tr = control_trace(Sequence(tuple(segs)), 128)
        errs.append(np.abs(chi2(tr, tr).values - oracle).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    # (b) bounded-pulse propagator against the constant-Hamiltonian closed form
    grid, u = propagate(Sequence((Segment.for_pulse(0.0, 1.0, SQUARE),)), S)
    mid = np.argmin(np.abs(grid.times - 0.5))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    closed = math.cos(PI / 4) * np.eye(2) - 1j * math.sin(PI / 4) * x
    mid_err = np.abs(u[mid] - closed).max()
    ok = min(orders) >= 1.0 - 0.1 and mid_err <= 1e-10
    report(10, ok, f"bang-bang convergence orders {orders[0]:.2f}, {orders[1]:.2f}; "
                   f"mid-pulse closed-form error {mid_err:.1e}")
