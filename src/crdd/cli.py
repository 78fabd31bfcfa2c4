"""Command-line interface.

Verbs: seq build | seq stagger | seq pad | analyze trace | analyze chi |
analyze symmetry | verify | sim run | fit | summarize | report.

Exit codes: 0 success, 2 validation error (message names the offending flag),
64 unknown verb (usage printed).  Outputs are never overwritten without
--force.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import control, report
from .sequences import ColoredSchedule, PulseShape, Sequence, cr_dd, build_named, pad
from .experiment import (ExperimentPlan, default_plan, fit_dataset, read_fits_csv,
                         read_results_csv, run_experiment, summarize,
                         write_fits_csv)

USAGE = """usage: crdd <verb> [options]

verbs:
  seq build         construct a catalog sequence (JSON)
  seq stagger       build the staggered two-color variant of catalog sequences
  seq pad           pad a staggered schedule with extra inter-pulse delay
  analyze trace     control-matrix trace CSV for a sequence or schedule color
  analyze chi       error-matrix integrals CSV
  analyze symmetry  control-matrix symmetry classification CSV
  verify            first-order ZZ-suppression verdict for a schedule
  sim run           run a simulated survival experiment from a plan JSON
  fit               fit exponential decays to a results CSV
  summarize         median characteristic-time summary table
  report            render SVG plots from results/fits CSVs

run `crdd <verb> --help` for verb options.
"""

_VERBS = ("seq build", "seq stagger", "seq pad", "analyze trace", "analyze chi",
          "analyze symmetry", "verify", "sim run", "fit", "summarize", "report")


class _CliError(Exception):
    pass


def _guard_output(path, force):
    if path and os.path.exists(path) and not force:
        raise _CliError(f"refusing to overwrite {path}; pass --force")


def _write_text(path, text, force):
    _guard_output(path, force)
    with open(path, "w") as fh:
        fh.write(text)


def _shape_args(parser):
    parser.add_argument("--shape", default="square",
                        choices=["ideal", "square", "gaussian", "gaussian-drag"])
    parser.add_argument("--sigma", type=float, default=None,
                        help="gaussian width in seconds (default tau_p/4)")
    parser.add_argument("--drag-coefficient", type=float, default=None)


def _make_shape(args):
    kind = args.shape.replace("-", "_")
    if kind == "gaussian_drag":
        return PulseShape.gaussian_drag(sigma=args.sigma,
                                        drag_coefficient=args.drag_coefficient
                                        if args.drag_coefficient is not None else 0.1)
    if kind == "gaussian":
        return PulseShape.gaussian(sigma=args.sigma)
    return PulseShape(kind)


def _load_target(args):
    """Sequence or ColoredSchedule from --sequence/--schedule flags."""
    if getattr(args, "sequence", None):
        with open(args.sequence) as fh:
            return Sequence.from_dict(json.load(fh))
    if getattr(args, "schedule", None):
        with open(args.schedule) as fh:
            return ColoredSchedule.from_dict(json.load(fh))
    raise _CliError("one of --sequence or --schedule is required")


def _pick_color(obj, color):
    if isinstance(obj, ColoredSchedule):
        return obj.red if color == "red" else obj.blue
    return obj


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_seq_build(rest):
    p = argparse.ArgumentParser(prog="crdd seq build")
    p.add_argument("--name", required=True)
    p.add_argument("--tau-p", type=float, required=True)
    _shape_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    seq = build_named(args.name, args.tau_p, _make_shape(args))
    _write_text(args.out, seq.to_json(indent=2) + "\n", args.force)
    print(f"wrote {args.out}: {seq.pulse_count} pulses, cycle {seq.duration:.6g} s")
    return 0


def _cmd_seq_stagger(rest):
    p = argparse.ArgumentParser(prog="crdd seq stagger")
    p.add_argument("--red", required=True, help="catalog sequence for the red class")
    p.add_argument("--blue", default=None, help="optional distinct blue sequence")
    p.add_argument("--tau-p", type=float, required=True)
    p.add_argument("--k", type=int, default=1, help="padding multiple (tau_d=(k-1)tau_p)")
    p.add_argument("--mode", default="symmetric", choices=["symmetric", "asymmetric"])
    _shape_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    sched = cr_dd(args.red, args.blue, tau_p=args.tau_p, shape=_make_shape(args),
                  k=args.k, mode=args.mode)
    _write_text(args.out, sched.to_json(indent=2) + "\n", args.force)
    print(f"wrote {args.out}: L={sched.pulse_count}, cycle {sched.duration:.6g} s")
    return 0


def _cmd_seq_pad(rest):
    p = argparse.ArgumentParser(prog="crdd seq pad")
    p.add_argument("--schedule", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tau-d", type=float)
    g.add_argument("--k", type=int)
    p.add_argument("--mode", default="symmetric", choices=["symmetric", "asymmetric"])
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    with open(args.schedule) as fh:
        sched = ColoredSchedule.from_dict(json.load(fh))
    # tau_p is the stagger delay opening an unpadded red slot (an ideal pulse
    # lasts 0, so its pulse duration cannot stand in)
    tau_d = args.tau_d
    if tau_d is None:
        tau_d = (args.k - 1) * sched.red.segments[0].duration
    padded = pad(sched, tau_d, args.mode)
    _write_text(args.out, padded.to_json(indent=2) + "\n", args.force)
    print(f"wrote {args.out}: cycle {padded.duration:.6g} s")
    return 0


def _cmd_analyze_trace(rest):
    p = argparse.ArgumentParser(prog="crdd analyze trace")
    p.add_argument("--sequence")
    p.add_argument("--schedule")
    p.add_argument("--color", default="red", choices=["red", "blue"])
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    seq = _pick_color(_load_target(args), args.color)
    trace = control.control_trace(seq, samples_per_pulse=args.samples)
    _guard_output(args.out, args.force)
    trace.to_csv(args.out)
    print(f"wrote {args.out}: {len(trace.grid.times)} nodes")
    return 0


def _cmd_analyze_chi(rest):
    p = argparse.ArgumentParser(prog="crdd analyze chi")
    p.add_argument("--sequence")
    p.add_argument("--schedule")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    rep = control.verify_first_order(_load_target(args),
                                     samples_per_pulse=args.samples, tol=args.tol)
    _guard_output(args.out, args.force)
    rep.to_csv(args.out)
    print(f"wrote {args.out}: max |chi|/tau_c = {rep.max_relative:.3e}")
    return 0


def _cmd_analyze_symmetry(rest):
    p = argparse.ArgumentParser(prog="crdd analyze symmetry")
    p.add_argument("--sequence")
    p.add_argument("--schedule")
    p.add_argument("--color", default="red", choices=["red", "blue"])
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    seq = _pick_color(_load_target(args), args.color)
    trace = control.control_trace(seq, samples_per_pulse=args.samples)
    rep = control.classify_all(trace, tol=args.tol)
    _guard_output(args.out, args.force)
    rep.to_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(rest):
    p = argparse.ArgumentParser(prog="crdd verify")
    p.add_argument("--schedule")
    p.add_argument("--sequence")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="optional chi CSV path")
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    rep = control.verify_first_order(_load_target(args),
                                     samples_per_pulse=args.samples, tol=args.tol)
    if args.out:
        _guard_output(args.out, args.force)
        rep.to_csv(args.out)
    zz_max = rep.two_local_max_relative
    if rep.passed:
        print(f"PASS (max |chi2|/tau_c = {zz_max:.3e})")
    else:
        bad = ", ".join(f"({a},{b})" for _, a, b, _, ok in rep.two_local_failures())
        print(f"FAIL (max |chi2|/tau_c = {zz_max:.3e}): {bad}")
    return 0


def _cmd_sim_run(rest):
    p = argparse.ArgumentParser(prog="crdd sim run")
    p.add_argument("--plan", required=True,
                   help="plan JSON path, or 'default' for the built-in demonstration")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    if args.plan == "default":
        plan = default_plan(seed=args.seed)
    else:
        with open(args.plan) as fh:
            plan = ExperimentPlan.from_dict(json.load(fh))
        plan = ExperimentPlan.from_dict({**plan.to_dict(), "seed": args.seed})
    _guard_output(args.out, args.force)
    result = run_experiment(plan, out_path=args.out)
    print(f"wrote {args.out}: {len(result.records)} traces, "
          f"{len(result.failures)} failures")
    for failure in result.failures:
        print(f"  failed cell: {failure}", file=sys.stderr)
    return 0


def _cmd_fit(rest):
    p = argparse.ArgumentParser(prog="crdd fit")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    rows = read_results_csv(args.inp)
    fits = fit_dataset(rows)
    _guard_output(args.out, args.force)
    write_fits_csv(fits, args.out)
    degenerate = sum(1 for f in fits if f.flag != "ok")
    print(f"wrote {args.out}: {len(fits)} fits ({degenerate} degenerate)")
    return 0


def _cmd_summarize(rest):
    p = argparse.ArgumentParser(prog="crdd summarize")
    p.add_argument("--fits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    table = summarize(read_fits_csv(args.fits))
    _guard_output(args.out, args.force)
    table.to_csv(args.out)
    print(f"wrote {args.out}: {len(table.rows)} rows")
    return 0


def _cmd_report(rest):
    p = argparse.ArgumentParser(prog="crdd report")
    p.add_argument("--results", required=True)
    p.add_argument("--fits")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--log-y", action="store_true")
    p.add_argument("--force", action="store_true")
    args = p.parse_args(rest)
    rows = read_results_csv(args.results)
    os.makedirs(args.out_dir, exist_ok=True)

    series = []
    methods = sorted({r["method"] for r in rows})
    for m in methods:
        by_dur = {}
        for r in rows:
            if r["method"] == m:
                by_dur.setdefault(r["duration_s"], []).append(r["p0"])
        durs = sorted(by_dur)
        series.append((m, durs, [float(np.mean(by_dur[d])) for d in durs]))
    survival_path = os.path.join(args.out_dir, "survival.svg")
    _write_text(survival_path,
                report.svg_line_plot(series, title="Mean survival probability",
                                     xlabel="protection duration (s)",
                                     ylabel="P0", log_y=args.log_y), args.force)
    written = [survival_path]
    if args.fits:
        fits = read_fits_csv(args.fits)
        groups = []
        for m in sorted({f.method for f in fits}):
            groups.append((m, [f.tau_gamma for f in fits if f.method == m]))
        box_path = os.path.join(args.out_dir, "tau_gamma_box.svg")
        _write_text(box_path,
                    report.svg_box_plot(groups, title="Characteristic times",
                                        ylabel="tau_gamma (s)", log_y=args.log_y),
                    args.force)
        written.append(box_path)
    print("wrote " + ", ".join(written))
    return 0


_HANDLERS = {
    ("seq", "build"): _cmd_seq_build,
    ("seq", "stagger"): _cmd_seq_stagger,
    ("seq", "pad"): _cmd_seq_pad,
    ("analyze", "trace"): _cmd_analyze_trace,
    ("analyze", "chi"): _cmd_analyze_chi,
    ("analyze", "symmetry"): _cmd_analyze_symmetry,
    ("verify",): _cmd_verify,
    ("sim", "run"): _cmd_sim_run,
    ("fit",): _cmd_fit,
    ("summarize",): _cmd_summarize,
    ("report",): _cmd_report,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    handler = None
    rest = None
    for words, fn in _HANDLERS.items():
        if tuple(argv[:len(words)]) == words:
            handler, rest = fn, argv[len(words):]
            break
    if handler is None:
        sys.stderr.write(f"unknown verb: {' '.join(argv[:2])}\n\n{USAGE}")
        return 64
    try:
        return handler(rest)
    except SystemExit as exc:  # argparse --help exits 0, errors exit 2
        return int(exc.code or 0)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
