"""Write the stored reference the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_reference.py

It records, from the crdd in ``src/``:

* every one-cycle propagator the survival pipelines use (square and DRAG
  plans), captured from ``run_experiment``, with the result-row count and the
  sampled durations of each method;
* chi1 / tau_c and the symmetry classes of every CR catalog schedule;
* the decoded probabilities of every state in the 10-qubit pool.

The stored files were made at the commit that introduced the benchmark.
Regenerate them only for a change meant to alter these outputs, and say so
where the change is recorded.
"""
from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from crdd import control, experiment, sequences, sim  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

CANONICAL_TAU_P = 5.69e-8


def survival_reference(wl):
    plan = experiment.ExperimentPlan.from_dict(wl.plan_dict())
    tr = Tracer()
    tr.wrap("crdd.experiment", "cycle_propagator", "capture", layers._after_cycle)
    try:
        result = experiment.run_experiment(plan)
    finally:
        tr.unwrap_all()
    rows = result.rows()
    durations = {m: sorted({r[3] for r in rows if r[0] == m}) for m in plan.methods}
    entries, arrays = [], []
    for label, cycle_s, u in tr.captured[None]["cycle_propagator"]:
        entry = {"label": label, "cycle_s": cycle_s}
        if entry in entries:  # long idles repeat one chunk propagator
            continue
        entries.append(entry)
        arrays.append(u)
    doc = {"rows": len(rows), "durations": durations, "propagators": entries}
    return doc, np.array(arrays)


def catalog_reference():
    out = {}
    margin = math.inf
    for shape_kind in W.SHAPES:
        shape = sequences.PulseShape.from_dict({"kind": shape_kind})
        for label, red, blue, k, mode in W.CR_CATALOG:
            sched = sequences.cr_dd(red, blue, tau_p=CANONICAL_TAU_P, shape=shape, k=k, mode=mode)
            rep = control.verify_first_order(sched, samples_per_pulse=W.SAMPLES_PER_PULSE)
            entry = {"chi1_rel": {}, "flags": {}}
            for color, seq in (("red", sched.red), ("blue", sched.blue)):
                entry["chi1_rel"][color] = (W.chi_rows(rep, f"one_local_{color}")
                                            / rep.duration).tolist()
                sym = control.classify_all(
                    control.control_trace(seq, samples_per_pulse=W.SAMPLES_PER_PULSE))
                entry["flags"][color] = W.symmetry_flags(sym)
                for comp in sym.components.values():
                    for r in comp.residuals.values():
                        margin = min(margin, abs(math.log10(max(r, 1e-300) / comp.tol)))
            out[f"{shape_kind}/{label}"] = entry
    print(f"symmetry residuals sit at least 10^{margin:.1f} from the tolerance")
    return out


def statevector_reference(wl):
    pool = wl.pool()
    doc = wl.input_doc(pool[0].poles)
    device = sim.DeviceModel.from_dict(doc["device"])
    spec = experiment.parse_method(doc["method"])
    schedules = spec.build(device.tau_p, sequences.PulseShape.from_dict(doc["shape"]),
                           coloring=device.graph.coloring)(device.n)
    cols = np.column_stack([sim.product_state(s.poles) for s in pool])
    psi = sim.evolve(device, schedules, psi0=cols, samples_per_pulse=doc["samples_per_pulse"])
    probs = np.array([sim.decode_probabilities(psi[:, j], s.poles) for j, s in enumerate(pool)])
    return {"pool": [list(s.poles) for s in pool]}, probs


def main():
    ref = {"provenance": run.provenance(None), "survival": {}}
    arrays = {}
    for name in ("survival-square", "survival-drag"):
        wl = W.WORKLOADS[name]
        ref["survival"][wl.shape], arrays[f"{wl.shape}_propagators"] = survival_reference(wl)
        print(f"{name}: {len(ref['survival'][wl.shape]['propagators'])} propagators")
    ref["catalog"] = catalog_reference()
    ref["statevector"], arrays["statevector_probs"] = statevector_reference(
        W.WORKLOADS["statevector-n10"])
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(os.path.join(HERE, "reference.npz"), **arrays)


if __name__ == "__main__":
    main()
