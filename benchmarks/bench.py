"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

Runs ``perfbench/run.py`` on every workload in ``BENCHMARK.json``, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics) for the ``run_seconds`` it sets, then the Tier-1 test suite, and
writes the result at the repository root.  From the repository root:

    python3 benchmarks/bench.py --pr N --seed S
"""
import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def refuse_constant(name):
    raise ValueError(f"non-finite metric {name} in a perfbench result")


def last_json_lines(argv, count):
    """The last ``count`` lines of a run's output as JSON, read strictly:
    ``NaN`` and ``Infinity`` are refused, as a reader of the result would."""
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return [json.loads(line, parse_constant=refuse_constant)
            for line in out.strip().splitlines()[-count:]]


def perfbench(workload, seed, seconds, trace):
    prov, result = last_json_lines(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)], 2)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return prov["provenance"], values, result["correct"], result["failed"]


def tier1():
    # src first, then the caller's path, as the Tier-1 command sets it
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    count = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", summary)}
    # pytest exits 0 when every test passed and 1 when some failed; any other
    # code (interrupted, internal or usage error, nothing collected) or a
    # summary without counts is no result to record
    if proc.returncode not in (0, 1) or not count:
        raise RuntimeError(f"pytest exited {proc.returncode} with summary {summary!r}")
    return {"passed": count.get("passed", 0),
            "failed": count.get("failed", 0) + count.get("error", 0), "wall_s": wall}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = {}
    for wl in spec["workloads"]:
        prov, end_to_end, ok0, failed0 = perfbench(wl["name"], args.seed, seconds, 0)
        traced, layers, ok1, failed1 = perfbench(wl["name"], args.seed, seconds, 1)
        workloads[wl["name"]] = {"end_to_end": end_to_end, "layers": layers,
                                 "absent_metrics": traced["absent_metrics"],
                                 "correct": ok0 and ok1, "failed": failed0 + failed1}
    doc = {"pr": args.pr, "git_sha": prov["git_sha"], "seed": args.seed,
           "seconds": seconds,
           "machine": {k: prov[k] for k in ("nproc", "python", "numpy", "scipy")},
           "workloads": workloads, "tier1": tier1()}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
