"""Which crdd attributes the traced run wraps, and how per-layer metrics are
derived from the spans and counts recorded at those wrappers.

Callers reach each layer through a module attribute looked up at call time,
so the wrapper has to sit on the attribute the caller uses: ``experiment``
imports ``cycle_propagator`` by name, ``cli`` imports ``run_experiment`` and
the CSV readers by name, while ``sim`` and ``control`` reach the kernels as
``_kernels.<name>``.
"""
from __future__ import annotations

import numpy as np

# -- span naming and counters -------------------------------------------------

def method_key(label):
    """Metric suffix of a schedule or method label:
    ``CR-(XY4,UR12)[red]`` -> ``cr_xy4_ur12``."""
    base = label.split("[", 1)[0]
    for a, b in (("(", ""), (")", ""), (",", "_"), ("-", "_")):
        base = base.replace(a, b)
    return base.lower()


def _first_schedule(schedules):
    """A Sequence applies to every qubit; a list holds one per qubit."""
    return schedules if hasattr(schedules, "segments") else list(schedules)[0]


def schedule_label(schedules):
    return _first_schedule(schedules).name.split("[", 1)[0]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _cycle_name(args, kwargs):
    return "sim.cycle_propagator." + method_key(schedule_label(_arg(args, kwargs, 1, "schedules")))


def _after_cycle(tr, args, kwargs, result):
    tr.count("sim.cycle_propagator_calls")
    schedules = _arg(args, kwargs, 1, "schedules")
    tr.capture("cycle_propagator",
               (schedule_label(schedules), _first_schedule(schedules).duration, result))


def _after_evolve(tr, args, kwargs, result):
    tr.capture("evolve", result)


def _after_rk4(tr, args, kwargs, result):
    psi, h, reps = args[0], args[4], args[5]
    steps = len(h) * reps
    tr.count("kernels.rk4_steps", steps)
    tr.count("kernels.rk4_column_steps", steps * (psi.shape[1] if psi.ndim > 1 else 1))


def _after_su2(tr, args, kwargs, result):
    tr.count("kernels.su2_chain_steps", len(args[0]))


def _after_propagate(tr, args, kwargs, result):
    _, U = result
    tr.count("control.propagate_nodes", U.shape[0])
    with tr.span("trace.check"):
        defect = float(np.abs(np.einsum("nji,njk->nik", U.conj(), U) - np.eye(2)).max())
    tr.capture("control_unitarity_defect", defect)


def _after_envelope(tr, args, kwargs, result):
    tr.count("sequences.envelope_samples", int(np.size(_arg(args, kwargs, 3, "t"))))


def _after_run(tr, args, kwargs, result):
    tr.count("experiment.cells", sum(len(r.points) for r in result.records))


def _after_fit(tr, args, kwargs, result):
    tr.count("fitting.fits")


def _after_svg(tr, args, kwargs, result):
    tr.count("report.svg_bytes", len(result.encode()))


def _calls(name):
    def after(tr, args, kwargs, result):
        tr.count(name)
    return after


# (module path, attribute, span name, after-callback)
WRAPS = (
    ("crdd._kernels", "rk4_evolve", "kernels.rk4", _after_rk4),
    ("crdd._kernels", "su2_chain", "kernels.su2_chain", _after_su2),
    ("crdd.experiment", "cycle_propagator", _cycle_name, _after_cycle),
    ("crdd.sim", "evolve", "sim.evolve", _after_evolve),
    ("crdd.sim", "decode_probabilities", "sim.decode", _calls("sim.decode_calls")),
    ("crdd.experiment", "decode_probabilities", "sim.decode", _calls("sim.decode_calls")),
    ("crdd.experiment", "sample_survival", "sim.sample", _calls("sim.sample_calls")),
    ("crdd.control", "propagate", "control.propagate", _after_propagate),
    ("crdd.control", "control_trace", "control.trace", None),
    ("crdd.control", "chi1", "control.chi", None),
    ("crdd.control", "chi2", "control.chi", None),
    ("crdd.control", "classify_all", "control.symmetry", None),
    ("crdd.control", "verify_first_order", "control.verify", None),
    ("crdd.sequences", "cr_dd", "sequences.build", None),
    ("crdd.sequences", "sim_dd", "sequences.build", None),
    ("crdd.experiment", "cr_dd", "sequences.build", None),
    ("crdd.experiment", "sim_dd", "sequences.build", None),
    ("crdd.sim", "envelope_amplitude", "sequences.envelope", _after_envelope),
    ("crdd.control", "envelope_amplitude", "sequences.envelope", _after_envelope),
    ("crdd.sequences", "_calibrate_drag", "sequences.drag_calibrate", None),
    ("crdd.cli", "run_experiment", "experiment.run", _after_run),
    ("crdd.experiment", "_format_row", "experiment.csv_write", None),
    ("crdd.cli", "write_fits_csv", "experiment.csv_write", None),
    ("crdd.experiment", "SummaryTable.to_csv", "experiment.csv_write", None),
    ("crdd.cli", "read_results_csv", "experiment.csv_read", None),
    ("crdd.cli", "read_fits_csv", "experiment.csv_read", None),
    ("crdd.experiment", "fit_decay", "fitting.fit", _after_fit),
    ("crdd.cli", "summarize", "fitting.summarize", None),
    ("crdd.report", "svg_line_plot", "report.svg", _after_svg),
    ("crdd.report", "svg_box_plot", "report.svg", _after_svg),
)


def install(tracer):
    """Wrap every target in WRAPS that exists; missing ones are recorded."""
    for module, attr, name, after in WRAPS:
        tracer.wrap(module, attr, name, after)


def target_keys(span_name):
    """Wrapped targets that produce spans or counts of a metric family."""
    keys = []
    for path, attr, name, _ in WRAPS:
        label = name if isinstance(name, str) else "sim.cycle_propagator"
        if label.startswith(span_name) or span_name.startswith(label + "."):
            keys.append(f"{path}.{attr}")
    return keys


def absent_metrics(present):
    """Metrics none of whose wrapped targets exist.  Metrics the harness
    measures itself (CLI verbs, ops, process) are never absent."""
    out = []
    for metric, _, _, source in LAYER_METRICS:
        keys = target_keys(source) if source else []
        if keys and not set(keys) & set(present):
            out.append(metric)
    return out


# -- metric definitions ----------------------------------------------------------
# (metric, unit, kind, source); ``source`` names the spans a metric is read
# from, or (by prefix) the family of wrapped targets it depends on.
#   incl  : inclusive seconds of the spans with that name, per pass
#   self  : self seconds of the spans with that name, per pass
#   count : a counter added at the wrapper, per pass (must repeat exactly)
#   setup : inclusive seconds during the traced set-up
#   setup_count : a counter added during the traced set-up
#   pass  : computed by the harness; a per-pass figure (accuracy, failures)
#           reports the worst pass, a run-level one (overhead, CPU) the run

CYCLE_METHODS = ("idle", "sim_xy4_2", "cr_xy4", "cr_xy4_ur12")

LAYER_METRICS = (
    ("kernels.rk4_s", "s", "incl", "kernels.rk4"),
    ("kernels.rk4_steps", "count", "count", "kernels.rk4"),
    ("kernels.rk4_column_steps", "count", "count", "kernels.rk4"),
    ("kernels.su2_chain_s", "s", "incl", "kernels.su2_chain"),
    ("kernels.su2_chain_steps", "count", "count", "kernels.su2_chain"),
    ("kernels.su2_chain_setup_s", "s", "setup", "kernels.su2_chain"),
    ("kernels.su2_chain_setup_steps", "count", "setup_count", "kernels.su2_chain"),
) + tuple(
    (f"sim.cycle_propagator_s.{m}", "s", "incl", f"sim.cycle_propagator.{m}")
    for m in CYCLE_METHODS
) + (
    ("sim.cycle_propagator_calls", "count", "count", "sim.cycle_propagator"),
    ("sim.evolve_s", "s", "incl", "sim.evolve"),
    ("sim.decode_s", "s", "incl", "sim.decode"),
    ("sim.decode_calls", "count", "count", "sim.decode"),
    ("sim.sample_s", "s", "incl", "sim.sample"),
    ("sim.sample_calls", "count", "count", "sim.sample"),
    ("sim.unitarity_defect_max", "1", "pass", "sim.evolve"),
    ("sim.ref_err_max", "1", "pass", "sim."),
    ("control.verify_s", "s", "incl", "control.verify"),
    ("control.propagate_s", "s", "incl", "control.propagate"),
    ("control.propagate_nodes", "count", "count", "control.propagate"),
    ("control.adjoint_s", "s", "self", "control.trace"),
    ("control.chi_s", "s", "incl", "control.chi"),
    ("control.symmetry_s", "s", "incl", "control.symmetry"),
    ("control.unitarity_defect_max", "1", "pass", "control.propagate"),
    ("control.chi2_rel_max", "1", "pass", "control.verify"),
    ("sequences.build_s", "s", "incl", "sequences.build"),
    ("sequences.envelope_s", "s", "incl", "sequences.envelope"),
    ("sequences.envelope_samples", "count", "count", "sequences.envelope"),
    ("sequences.drag_calibrate_s", "s", "setup", "sequences.drag_calibrate"),
    ("experiment.run_s", "s", "incl", "experiment.run"),
    ("experiment.self_s", "s", "self", "experiment.run"),
    ("experiment.cells", "count", "count", "experiment.run"),
    ("experiment.csv_write_s", "s", "incl", "experiment.csv_write"),
    ("experiment.csv_read_s", "s", "incl", "experiment.csv_read"),
    ("fitting.fit_s", "s", "incl", "fitting.fit"),
    ("fitting.fits", "count", "count", "fitting.fit"),
    ("fitting.summarize_s", "s", "incl", "fitting.summarize"),
    ("cli.sim_run_s", "s", "incl", "cli.sim_run"),
    ("cli.fit_s", "s", "incl", "cli.fit"),
    ("cli.summarize_s", "s", "incl", "cli.summarize"),
    ("cli.report_s", "s", "incl", "cli.report"),
    ("report.svg_s", "s", "incl", "report.svg"),
    ("report.svg_bytes", "bytes", "count", "report.svg"),
    ("ops_failed_frac", "ratio", "pass", None),
    ("ops.attempted", "count", "pass", None),
    ("trace.overhead_s", "s", "pass", None),
    ("trace.count_mismatches", "count", "pass", None),
    ("trace.nesting_excess_s", "s", "pass", None),
    ("process.cpu_s", "s", "pass", None),
)

# counter names, where they differ from the metric name
COUNTER_OF = {
    "kernels.su2_chain_setup_steps": "kernels.su2_chain_steps",
}
