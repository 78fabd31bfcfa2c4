"""crdd benchmark: times the four workloads end to end and, in a separate
traced run, per layer; checks every pass's outputs against a stored reference.

Run from the repository root:

    python3 perfbench/run.py --workload survival-square --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics listed in
``BENCHMARK.json``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance.

One process runs every pass; set-up time is measured in fresh interpreters
(median of several).  A pass is timed with ``time.perf_counter``; the run
repeats passes for ``--seconds`` (at least three) and reports the median.
The traced run alternates untraced and traced passes, so ``trace.overhead_s``
compares passes made under the same conditions.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def git_sha(root=ROOT):
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed):
    import crdd
    import numpy
    import scipy

    backend = getattr(crdd, "backend_name", None)
    return {"git_sha": git_sha(), "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "backend": backend() if callable(backend) else None}


def time_setup(code, repeats=SETUP_REPEATS):
    """Median wall time of fresh interpreters that import crdd and finish its
    lazy set-up."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return statistics.median(times)


def run_pass(wl, inputs, workdir, ref, tracer=None):
    """One timed pass, then its output checks (untimed)."""
    wl.prepare_pass(workdir)
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        result = wl.run_pass(inputs, workdir, None)
    else:
        with tracer.span("pass"):
            result = wl.run_pass(inputs, workdir, tracer)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        result.errors = wl.check_pass(inputs, workdir, result, ref)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable output
        result.errors = [f"output check raised {exc!r}"]
    return wall, cpu, result


def layer_values(tr, pass_id, wl, inputs, result, ref):
    """Per-layer metric values of one traced pass."""
    import layers
    import tracer as tracer_mod
    from workloads import unitarity_defect

    spans = tr.pass_spans(pass_id)
    totals = tracer_mod.span_totals(spans)
    setup_totals = tracer_mod.span_totals(tr.pass_spans("setup"))
    counts, setup_counts = tr.counts[pass_id], tr.counts["setup"]
    captured = tr.captured[pass_id]
    derived = {
        "sim.unitarity_defect_max": max(
            (unitarity_defect(x) for x in captured.get("evolve", ())), default=0.0),
        "sim.ref_err_max": 0.0,
        "control.unitarity_defect_max": max(captured.get("control_unitarity_defect", ()),
                                            default=0.0),
        "control.chi2_rel_max": 0.0,
        "ops_failed_frac": sum(not op.ok for op in result.ops) / max(len(result.ops), 1),
        "ops.attempted": len(result.ops),
        "trace.nesting_excess_s": tracer_mod.nesting_excess(spans),
    }
    derived.update(wl.accuracy(inputs, result, captured, ref))
    out = {}
    for metric, unit, kind, source in layers.LAYER_METRICS:
        counter = layers.COUNTER_OF.get(metric, metric)
        if kind == "incl":
            out[metric] = totals.get(source, (0.0, 0.0, 0))[0]
        elif kind == "self":
            out[metric] = totals.get(source, (0.0, 0.0, 0))[1]
        elif kind == "count":
            out[metric] = counts.get(counter, 0)
        elif kind == "setup":
            out[metric] = setup_totals.get(source, (0.0, 0.0, 0))[0]
        elif kind == "setup_count":
            out[metric] = setup_counts.get(counter, 0)
        elif metric in derived:
            out[metric] = derived[metric]
    return out


def plain_run(wl, inputs, workdir, ref, seconds):
    setup_s = time_setup(wl.setup_code(SRC))
    wl.setup()
    walls, results = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, _, result = run_pass(wl, inputs, workdir, ref)
        walls.append(wall)
        results.append(result)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    print(f"{wl.name}: {len(walls)} passes, wall_s " + " ".join(f"{w:.3f}" for w in walls),
          file=sys.stderr)
    return metrics, results, [], []


def traced_run(wl, inputs, workdir, ref, seconds, seed):
    import layers
    import tracer as tracer_mod

    tr = tracer_mod.Tracer()
    tr.pass_id = "setup"
    layers.install(tr)
    try:
        with tr.span("setup"):
            wl.setup()
    finally:
        tr.unwrap_all()

    plain_walls, cpus, traced_walls, results, per_pass = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    pass_id = 0
    while len(traced_walls) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        wall, cpu, result = run_pass(wl, inputs, workdir, ref)
        plain_walls.append(wall)
        cpus.append(cpu)
        results.append(result)

        pass_id += 1
        tr.pass_id = pass_id
        layers.install(tr)
        try:
            wall, _, result = run_pass(wl, inputs, workdir, ref, tr)
        finally:
            tr.unwrap_all()
        traced_walls.append(wall)
        results.append(result)
        per_pass.append(layer_values(tr, pass_id, wl, inputs, result, ref))

    absent = layers.absent_metrics(tr.present)
    mismatches = 0
    metrics = {}
    for metric, unit, kind, source in layers.LAYER_METRICS:
        if metric in absent:
            continue
        values = [p[metric] for p in per_pass if metric in p]
        if not values:
            continue
        if kind == "pass":  # accuracy and failure figures: the worst pass
            value = max(values)
        elif unit in ("count", "bytes"):  # must repeat exactly
            mismatches += len(set(values)) > 1
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[metric] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls), "s")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    metrics["process.cpu_s"] = (statistics.median(cpus), "s")
    errors = []
    excess = metrics.get("trace.nesting_excess_s", (0.0,))[0]
    if excess > 1e-6:
        errors.append(f"child spans exceed their parent by {excess:.3e} s")

    os.makedirs(OUT, exist_ok=True)
    tr.dump(os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json"),
            extra={"provenance": provenance(seed), "absent_metrics": absent})
    print(f"{wl.name}: {len(plain_walls)} untraced + {len(traced_walls)} traced passes; "
          f"absent metrics: {absent or 'none'}", file=sys.stderr)
    return metrics, results, absent, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crdd", "__init__.py")):
        print(f"error: crdd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref = load_reference()
        inputs = wl.make_inputs(args.seed, workdir)
        if args.trace:
            metrics, results, absent, errors = traced_run(wl, inputs, workdir, ref,
                                                          args.seconds, args.seed)
        else:
            metrics, results, absent, errors = plain_run(wl, inputs, workdir, ref,
                                                         args.seconds)
        errors += wl.check_run(inputs, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.ops) for r in results)
    unexpected = [op for r in results for op in r.ops if not op.expected]
    failed_checks = [r for r in results if r.errors]
    failed = min(attempted, len(unexpected) + len(failed_checks) + bool(errors))
    errors += [f"{op.name}: {op.detail}" for op in unexpected]
    errors += [e for r in failed_checks for e in r.errors]
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    for k in sorted({f"{op.name}: {op.detail}" for r in results for op in r.ops
                     if op.expected and not op.ok}):
        print(f"known defect: {k}", file=sys.stderr)

    prov = provenance(args.seed)
    prov.update(workload=wl.name, trace=args.trace, absent_metrics=absent)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
