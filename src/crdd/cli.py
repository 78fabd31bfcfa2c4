"""Command-line interface: ``crdd <verb> [options]``.

``VERBS`` maps each verb to its handler and one-line help; ``crdd --help``
lists them and ``crdd <verb> --help`` gives a verb's options.

Exit codes: 0 success, 2 validation error (message names the offending flag),
64 unknown verb (usage printed).  Outputs are never overwritten without
--force.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import control, report
from .sequences import ColoredSchedule, PulseShape, Sequence, cr_dd, build_named, pad
from .experiment import (ExperimentPlan, default_plan, fit_dataset, mean_by_duration,
                         read_fits_csv, read_results_csv, run_experiment, summarize,
                         write_fits_csv)


def _guard_output(path, force):
    if os.path.exists(path) and not force:
        raise FileExistsError(f"refusing to overwrite {path}; pass --force")


def _write_text(path, text, force):
    _guard_output(path, force)
    with open(path, "w") as fh:
        fh.write(text)


def _read_json(cls, path):
    with open(path) as fh:
        return cls.from_dict(json.load(fh))


def _parser(verb, out=True, target=False, tol=None, shape=False):
    """Parser for one verb, with the options verbs share declared here once.

    Every verb takes ``--force``.  ``out`` is True for a required ``--out``,
    a help string for an optional one, False for none.  ``target`` adds the
    required ``--sequence``/``--schedule`` pair (one of the two) and
    ``--samples``, ``tol`` a ``--tol`` with that default, ``shape`` the
    pulse-shape flags.
    """
    p = argparse.ArgumentParser(prog=f"crdd {verb}")
    if target:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--sequence")
        group.add_argument("--schedule")
        p.add_argument("--samples", type=int, default=256)
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)
    if shape:
        p.add_argument("--shape", default="square",
                       choices=["ideal", "square", "gaussian", "gaussian-drag"])
        p.add_argument("--sigma", type=float, default=None,
                       help="gaussian width in seconds (default tau_p/4)")
        p.add_argument("--drag-coefficient", type=float, default=None)
    if out:
        p.add_argument("--out", required=out is True,
                       help=None if out is True else out)
    p.add_argument("--force", action="store_true")
    return p


def _make_shape(args):
    kind = args.shape.replace("-", "_")
    for flag, value, kinds in (("--sigma", args.sigma, ("gaussian", "gaussian_drag")),
                               ("--drag-coefficient", args.drag_coefficient, ("gaussian_drag",))):
        if value is not None and kind not in kinds:
            raise ValueError(f"{flag} does not apply to --shape {args.shape}")
    return PulseShape(kind, sigma=args.sigma, drag_coefficient=args.drag_coefficient)


def _load_target(args):
    """Sequence or ColoredSchedule named by --sequence/--schedule."""
    if args.sequence is not None:
        return _read_json(Sequence, args.sequence)
    return _read_json(ColoredSchedule, args.schedule)


def _color_trace(verb, rest, tol=None):
    """Parse a trace verb's flags; return them and the control trace of the
    target (its --color, for a schedule)."""
    p = _parser(verb, target=True, tol=tol)
    p.add_argument("--color", default="red", choices=["red", "blue"])
    args = p.parse_args(rest)
    seq = _load_target(args)
    if isinstance(seq, ColoredSchedule):
        seq = seq.red if args.color == "red" else seq.blue
    return args, control.control_trace(seq, samples_per_pulse=args.samples)


def _chi_report(verb, rest, out):
    """Parse a chi verb's flags, verify the target to first order and write
    the chi CSV when --out is given; return the flags and the report."""
    args = _parser(verb, out=out, target=True, tol=1e-8).parse_args(rest)
    rep = control.verify_first_order(_load_target(args),
                                     samples_per_pulse=args.samples, tol=args.tol)
    if args.out is not None:
        _guard_output(args.out, args.force)
        rep.to_csv(args.out)
    return args, rep


# ---------------------------------------------------------------------------
# verb handlers: each takes its verb words and the arguments after them
# ---------------------------------------------------------------------------

def _cmd_seq_build(verb, rest):
    p = _parser(verb, shape=True)
    p.add_argument("--name", required=True)
    p.add_argument("--tau-p", type=float, required=True)
    args = p.parse_args(rest)
    seq = build_named(args.name, args.tau_p, _make_shape(args))
    _write_text(args.out, seq.to_json(indent=2) + "\n", args.force)
    print(f"wrote {args.out}: {seq.pulse_count} pulses, cycle {seq.duration:.6g} s")


def _cmd_seq_stagger(verb, rest):
    p = _parser(verb, shape=True)
    p.add_argument("--red", required=True, help="catalog sequence for the red class")
    p.add_argument("--blue", default=None, help="optional distinct blue sequence")
    p.add_argument("--tau-p", type=float, required=True)
    p.add_argument("--k", type=int, default=1, help="padding multiple (tau_d=(k-1)tau_p)")
    p.add_argument("--mode", default="symmetric", choices=["symmetric", "asymmetric"])
    args = p.parse_args(rest)
    sched = cr_dd(args.red, args.blue, tau_p=args.tau_p, shape=_make_shape(args),
                  k=args.k, mode=args.mode)
    _write_text(args.out, sched.to_json(indent=2) + "\n", args.force)
    print(f"wrote {args.out}: L={sched.pulse_count}, cycle {sched.duration:.6g} s")


def _cmd_seq_pad(verb, rest):
    p = _parser(verb)
    p.add_argument("--schedule", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tau-d", type=float)
    g.add_argument("--k", type=int)
    p.add_argument("--mode", default="symmetric", choices=["symmetric", "asymmetric"])
    args = p.parse_args(rest)
    sched = _read_json(ColoredSchedule, args.schedule)
    # tau_p is the stagger delay opening an unpadded red slot (an ideal pulse
    # lasts 0, so its pulse duration cannot stand in)
    tau_d = args.tau_d
    if tau_d is None:
        tau_d = (args.k - 1) * sched.red.segments[0].duration
    padded = pad(sched, tau_d, args.mode)
    _write_text(args.out, padded.to_json(indent=2) + "\n", args.force)
    print(f"wrote {args.out}: cycle {padded.duration:.6g} s")


def _cmd_analyze_trace(verb, rest):
    args, trace = _color_trace(verb, rest)
    _guard_output(args.out, args.force)
    trace.to_csv(args.out)
    print(f"wrote {args.out}: {len(trace.grid.times)} nodes")


def _cmd_analyze_chi(verb, rest):
    args, rep = _chi_report(verb, rest, out=True)
    print(f"wrote {args.out}: max |chi|/tau_c = {rep.max_relative:.3e}")


def _cmd_analyze_symmetry(verb, rest):
    args, trace = _color_trace(verb, rest, tol=1e-6)
    rep = control.classify_all(trace, tol=args.tol)
    _guard_output(args.out, args.force)
    rep.to_csv(args.out)
    print(f"wrote {args.out}")


def _cmd_verify(verb, rest):
    _, rep = _chi_report(verb, rest, out="optional chi CSV path")
    zz_max = rep.two_local_max_relative
    if rep.passed:
        print(f"PASS (max |chi2|/tau_c = {zz_max:.3e})")
    else:
        bad = ", ".join(f"({a},{b})" for _, a, b, _, ok in rep.two_local_failures())
        print(f"FAIL (max |chi2|/tau_c = {zz_max:.3e}): {bad}")


def _cmd_sim_run(verb, rest):
    p = _parser(verb)
    p.add_argument("--plan", required=True,
                   help="plan JSON path, or 'default' for the built-in demonstration")
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(rest)
    if args.plan == "default":
        plan = default_plan(seed=args.seed)
    else:
        plan = dataclasses.replace(_read_json(ExperimentPlan, args.plan), seed=args.seed)
    _guard_output(args.out, args.force)
    result = run_experiment(plan, out_path=args.out)
    print(f"wrote {args.out}: {len(result.records)} traces, "
          f"{len(result.failures)} failures")
    for failure in result.failures:
        print(f"  failed cell: {failure}", file=sys.stderr)


def _cmd_fit(verb, rest):
    p = _parser(verb)
    p.add_argument("--in", dest="inp", required=True)
    args = p.parse_args(rest)
    rows = read_results_csv(args.inp)
    fits = fit_dataset(rows)
    _guard_output(args.out, args.force)
    write_fits_csv(fits, args.out)
    degenerate = sum(1 for f in fits if f.flag != "ok")
    print(f"wrote {args.out}: {len(fits)} fits ({degenerate} degenerate)")


def _cmd_summarize(verb, rest):
    p = _parser(verb)
    p.add_argument("--fits", required=True)
    args = p.parse_args(rest)
    table = summarize(read_fits_csv(args.fits))
    _guard_output(args.out, args.force)
    table.to_csv(args.out)
    print(f"wrote {args.out}: {len(table.rows)} rows")


def _cmd_report(verb, rest):
    p = _parser(verb, out=False)
    p.add_argument("--results", required=True)
    p.add_argument("--fits")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--log-y", action="store_true")
    args = p.parse_args(rest)
    rows = read_results_csv(args.results)
    os.makedirs(args.out_dir, exist_ok=True)

    series = [(m, *mean_by_duration([r for r in rows if r["method"] == m]))
              for m in sorted({r["method"] for r in rows})]
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


VERBS = {
    "seq build": (_cmd_seq_build, "construct a catalog sequence (JSON)"),
    "seq stagger": (_cmd_seq_stagger,
                    "build the staggered two-color variant of catalog sequences"),
    "seq pad": (_cmd_seq_pad, "pad a staggered schedule with extra inter-pulse delay"),
    "analyze trace": (_cmd_analyze_trace,
                      "control-matrix trace CSV for a sequence or schedule color"),
    "analyze chi": (_cmd_analyze_chi, "error-matrix integrals CSV"),
    "analyze symmetry": (_cmd_analyze_symmetry,
                         "control-matrix symmetry classification CSV"),
    "verify": (_cmd_verify, "first-order ZZ-suppression verdict for a schedule"),
    "sim run": (_cmd_sim_run, "run a simulated survival experiment from a plan JSON"),
    "fit": (_cmd_fit, "fit exponential decays to a results CSV"),
    "summarize": (_cmd_summarize, "median characteristic-time summary table"),
    "report": (_cmd_report, "render SVG plots from results/fits CSVs"),
}

USAGE = ("usage: crdd <verb> [options]\n\nverbs:\n"
         + "".join(f"  {verb:<18}{line}\n" for verb, (_, line) in VERBS.items())
         + "\nrun `crdd <verb> --help` for verb options.\n")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    verb = next((v for v in VERBS if argv[:len(v.split())] == v.split()), None)
    if verb is None:
        sys.stderr.write(f"unknown verb: {' '.join(argv[:2])}\n\n{USAGE}")
        return 64
    try:
        VERBS[verb][0](verb, argv[len(verb.split()):])
    except SystemExit as exc:  # argparse --help exits 0, errors exit 2
        return int(exc.code or 0)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
