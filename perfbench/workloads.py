"""The benchmark's workloads: inputs made from a seed, one pass through
crdd's public API or CLI, and the checks on each pass's outputs.

Every workload keeps its work per pass independent of the seed: the seed
picks shot-sampling seeds, encoded states, the pulse width and the order of
the catalog, none of which changes how many integration steps run.  That keeps
run-to-run spread down to machine noise, and lets one stored reference
(``reference.json`` / ``reference.npz``, made by ``make_reference.py``) check
every seed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import shutil
from dataclasses import dataclass, field

import numpy as np

import crdd
from crdd import cli, control, experiment, sequences, sim

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLES_PER_PULSE = 256
PROP_TOL = 1e-9  # stored propagators and decoded probabilities
CHI2_TOL = 1e-8  # CR chi2 entries, relative to the cycle duration
CLOSED_FORM_TOL = 1e-6  # SIM-XY4-2 chi2[Z,Z] against 4 tau_d + 2 tau_p
CHI1_TOL = 1e-9  # chi1 / tau_c against the reference

# Defect B: the results CSV does not quote method labels that contain a comma,
# so reading it back fails on the next field.  Only plans with such a label
# can show it.
DEFECT_B = re.compile(r"could not convert string to float: 'type[12]_")


@dataclass
class Op:
    """One operation: a CLI verb, a schedule verification or an evolution."""

    name: str
    ok: bool
    expected: bool = True  # False: an outcome no known defect explains
    detail: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # failed output checks


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    with np.load(os.path.join(HERE, "reference.npz")) as arrays:
        ref["arrays"] = {k: arrays[k] for k in arrays.files}
    return ref


def max_abs_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max())


def unitarity_defect(x):
    """|U^dag U - I|_max for a square matrix, |<psi|psi> - 1| for a vector."""
    x = np.asarray(x)
    if x.ndim == 2 and x.shape[0] == x.shape[1]:
        return float(np.abs(x.conj().T @ x - np.eye(x.shape[0])).max())
    return float(abs(np.vdot(x, x).real - 1.0))


class Workload:
    name = ""
    drag = False  # set-up fills the DRAG calibration cache

    def setup_code(self, src):
        """Python source that a fresh interpreter runs to time set-up."""
        code = f"import sys; sys.path.insert(0, {src!r}); import crdd"
        if self.drag:
            code += ("; import math; crdd.envelope_amplitude("
                     "crdd.PulseShape.gaussian_drag(), math.pi, 1.0, 0.5)")
        return code

    def setup(self):
        """The same lazy set-up, in this process."""
        if self.drag:
            crdd.envelope_amplitude(crdd.PulseShape.gaussian_drag(), math.pi, 1.0, 0.5)

    def make_inputs(self, seed, workdir):
        raise NotImplementedError

    def prepare_pass(self, workdir):
        """Untimed clean-up before a pass."""

    def run_pass(self, inputs, workdir, tracer):
        raise NotImplementedError

    def check_pass(self, inputs, workdir, result, ref):
        return []

    def check_run(self, inputs, ref):
        """Checks made once per run, outside the timed passes."""
        return []

    def accuracy(self, inputs, result, captured, ref):
        return {}


# ---------------------------------------------------------------------------
# survival-square / survival-drag: the CLI pipeline on a plan JSON
# ---------------------------------------------------------------------------

RESULTS_FIELDS = 8  # method,embedding_id,state_id,duration_s,pulses,shots,zeros,p0


def read_results(path):
    """Rows of a results CSV, tolerating unquoted commas in the method label."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = []
    for row in body:
        extra = len(row) - RESULTS_FIELDS
        if extra < 0:
            raise ValueError(f"short results row: {row}")
        out.append([",".join(row[:extra + 1])] + row[extra + 1:])
    return header, out


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Survival(Workload):
    """``crdd sim run`` -> ``fit`` -> ``summarize`` -> ``report`` on a plan."""

    def __init__(self, name, shape, methods, cr_over_sim_min):
        self.name = name
        self.shape = shape
        self.methods = methods
        self.drag = shape == "gaussian_drag"
        self.cr_over_sim_min = cr_over_sim_min  # base -> lower bound

    def plan_dict(self):
        plan = experiment.default_plan().to_dict()
        plan["methods"] = list(self.methods)
        plan["shape"] = {"kind": self.shape}
        return plan

    def make_inputs(self, seed, workdir):
        rnd = _rng(self.name, seed)
        plan = self.plan_dict()
        plan["seed"] = rnd.randrange(2 ** 31)
        plan["states"]["seed"] = rnd.randrange(2 ** 31)
        path = os.path.join(workdir, "plan.json")
        _write_json(path, plan)
        return {"plan": path, "seed": plan["seed"], "shots": plan["shots"],
                "comma_label": any("," in m for m in self.methods)}

    def _paths(self, workdir):
        return {k: os.path.join(workdir, "pass", v) for k, v in (
            ("results", "results.csv"), ("fits", "fits.csv"),
            ("summary", "summary.csv"), ("figures", "figures"))}

    def prepare_pass(self, workdir):
        _fresh_dir(os.path.join(workdir, "pass"))

    def run_pass(self, inputs, workdir, tracer):
        p = self._paths(workdir)
        res = PassResult()

        def verb(span, argv, depends_on_fit=False):
            out, err = io.StringIO(), io.StringIO()
            with _span(tracer, span), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            msg = err.getvalue().strip()
            ok = code == 0
            expected = ok or (inputs["comma_label"] and (
                DEFECT_B.search(msg) is not None or depends_on_fit))
            res.ops.append(Op(span, ok, expected, f"exit {code}: {msg}" if not ok else ""))
            return ok

        verb("cli.sim_run", ["sim", "run", "--plan", inputs["plan"],
                             "--seed", str(inputs["seed"]), "--out", p["results"]])
        fit_ok = verb("cli.fit", ["fit", "--in", p["results"], "--out", p["fits"]])
        verb("cli.summarize", ["summarize", "--fits", p["fits"], "--out", p["summary"]],
             depends_on_fit=not fit_ok)
        report = ["report", "--results", p["results"], "--out-dir", p["figures"]]
        if fit_ok:
            report += ["--fits", p["fits"]]
        verb("cli.report", report)
        return res

    def check_pass(self, inputs, workdir, result, ref):
        p = self._paths(workdir)
        expect = ref["survival"][self.shape]
        errors = []
        ok = {op.name: op.ok for op in result.ops}
        if ok.get("cli.sim_run"):
            errors += self._check_results(p["results"], expect, inputs["shots"])
        if ok.get("cli.fit"):
            fits = read_table(p["fits"])
            if len(fits) != len(self.methods):
                errors.append(f"{len(fits)} fits, expected {len(self.methods)}")
        if ok.get("cli.summarize"):
            rows = {r["method"]: r for r in read_table(p["summary"])}
            for base, low in self.cr_over_sim_min.items():
                got = float(rows.get(base, {}).get("cr_over_sim") or "nan")
                if not got >= low:
                    errors.append(f"cr_over_sim[{base}] = {got}, expected >= {low}")
        if ok.get("cli.report"):
            names = ["survival.svg"] + (["tau_gamma_box.svg"] if ok.get("cli.fit") else [])
            for fname in names:
                path = os.path.join(p["figures"], fname)
                with open(path) as fh:
                    if not fh.read(4) == "<svg":
                        errors.append(f"{fname} is not an SVG document")
        return errors

    def _check_results(self, path, expect, shots):
        header, rows = read_results(path)
        errors = []
        if len(rows) != expect["rows"]:
            errors.append(f"{len(rows)} result rows, expected {expect['rows']}")
        durations = {}
        for m, _, _, dur, _, sh, zeros, p0 in rows:
            durations.setdefault(m, set()).add(float(dur))
            z = int(zeros)
            if int(sh) != shots or not 0 <= z <= shots or abs(float(p0) - z / shots) > 1e-12:
                errors.append(f"inconsistent shot counts in row {m},{dur}")
                break
        for m, want in expect["durations"].items():
            got = sorted(durations.get(m, ()))
            if len(got) != len(want) or any(abs(a - b) > 1e-12 * b for a, b in zip(got, want)):
                errors.append(f"durations of {m} differ from the reference")
        if set(durations) != set(expect["durations"]):
            errors.append(f"methods {sorted(durations)} differ from the reference")
        return errors

    def cycle_schedules(self, sub, shape, label, cycle_s):
        if label == "IDLE":
            return sim.idle_schedule(cycle_s)
        spec = experiment.parse_method(label)
        return spec.build(sub.tau_p, shape, coloring=sub.graph.coloring)(sub.n)

    def check_run(self, inputs, ref):
        """Every propagator the pipeline uses, recomputed through the public
        API and compared with the stored one."""
        with open(inputs["plan"]) as fh:
            plan = experiment.ExperimentPlan.from_dict(json.load(fh))
        sub = plan.device.colored().subdevice(plan.embeddings[0])
        computed = [sim.cycle_propagator(sub, self.cycle_schedules(sub, plan.shape, e["label"],
                                                                   e["cycle_s"]),
                                         samples_per_pulse=plan.samples_per_pulse)
                    for e in ref["survival"][self.shape]["propagators"]]
        return self.propagator_errors(computed, ref)

    def propagator_errors(self, computed, ref):
        stored = ref["arrays"][f"{self.shape}_propagators"]
        errors = []
        for entry, u, want in zip(ref["survival"][self.shape]["propagators"], computed, stored):
            err = max_abs_diff(u, want)
            if not err <= PROP_TOL:
                errors.append(f"{entry['label']} propagator ({entry['cycle_s']:.4g} s) "
                              f"differs from the reference by {err:.3e}")
        return errors

    def accuracy(self, inputs, result, captured, ref):
        entries = ref["survival"][self.shape]["propagators"]
        stored = ref["arrays"][f"{self.shape}_propagators"]
        err = 0.0
        for label, cycle_s, u in captured.get("cycle_propagator", ()):
            for i, entry in enumerate(entries):
                if entry["label"] == label and abs(entry["cycle_s"] - cycle_s) <= 1e-12 * cycle_s:
                    err = max(err, max_abs_diff(u, stored[i]))
        return {"sim.ref_err_max": err}


# ---------------------------------------------------------------------------
# verify-catalog: first-order verification and symmetry classes of the CR catalog
# ---------------------------------------------------------------------------

# (label, red, blue, k, padding mode)
CR_CATALOG = (
    ("CR-XY4", "XY4", None, 1, "symmetric"),
    ("CR-EDD", "EDD", None, 1, "symmetric"),
    ("CR-KDD", "KDD", None, 1, "symmetric"),
    ("CR-UR10", "UR10", None, 1, "symmetric"),
    ("CR-UR12", "UR12", None, 1, "symmetric"),
    ("CR-RGA64c", "RGA64c", None, 1, "symmetric"),
    ("CR-(XY4,UR12)", "XY4", "UR12", 1, "symmetric"),
    ("CR-XY4-2S", "XY4", None, 2, "symmetric"),
    ("CR-XY4-4A", "XY4", None, 4, "asymmetric"),
)
SHAPES = ("square", "gaussian_drag")
SIM_CHECK = ("SIM-XY4-2", "XY4", 2)


def chi_rows(report, kind):
    m = np.zeros((3, 3))
    for k, a, b, v, _ in report.rows:
        if k == kind:
            m["XYZ".index(a), "XYZ".index(b)] = v
    return m


def symmetry_flags(rep):
    return {f"{m}{a}": [bool(comp.flag(r)) for r in control.RELATIONS]
            for (m, a), comp in rep.components.items()}


class Catalog(Workload):
    name = "verify-catalog"
    drag = True

    def make_inputs(self, seed, workdir):
        rnd = _rng(self.name, seed)
        tau_p = rnd.uniform(20e-9, 100e-9)
        entries = [{"kind": "cr", "key": f"{shape}/{label}", "red": red, "blue": blue,
                    "k": k, "mode": mode, "shape": shape}
                   for shape in SHAPES for (label, red, blue, k, mode) in CR_CATALOG]
        label, base, k = SIM_CHECK
        entries.append({"kind": "sim", "key": f"square/{label}", "red": base, "k": k,
                        "shape": "square"})
        rnd.shuffle(entries)
        path = os.path.join(workdir, "catalog.json")
        _write_json(path, {"tau_p_s": tau_p, "samples_per_pulse": SAMPLES_PER_PULSE,
                           "schedules": entries})
        return {"catalog": path}

    def run_pass(self, inputs, workdir, tracer):
        with open(inputs["catalog"]) as fh:
            doc = json.load(fh)
        tau_p, spp = doc["tau_p_s"], doc["samples_per_pulse"]
        res = PassResult()
        for e in doc["schedules"]:
            shape = crdd.PulseShape.from_dict({"kind": e["shape"]})
            try:
                if e["kind"] == "cr":
                    sched = sequences.cr_dd(e["red"], e["blue"], tau_p=tau_p, shape=shape,
                                            k=e["k"], mode=e["mode"])
                    rep = control.verify_first_order(sched, samples_per_pulse=spp)
                    sym = {c: control.classify_all(control.control_trace(seq, samples_per_pulse=spp))
                           for c, seq in (("red", sched.red), ("blue", sched.blue))}
                else:
                    sched = sequences.sim_dd(e["red"], e["k"], tau_p, shape)
                    rep = control.verify_first_order(sched, samples_per_pulse=spp)
                    sym = None
            except Exception as exc:  # noqa: BLE001 - one schedule's failure is recorded
                res.ops.append(Op(e["key"], False, False, repr(exc)))
                continue
            res.ops.append(Op(e["key"], True))
            res.outputs[e["key"]] = (e, tau_p, rep, sym)
        return res

    def check_pass(self, inputs, workdir, result, ref):
        errors = []
        for key, (e, tau_p, rep, sym) in result.outputs.items():
            tau_c = rep.duration
            if e["kind"] == "sim":
                tau_d = (e["k"] - 1) * tau_p
                zz = chi_rows(rep, "two_local")[2, 2]
                if not abs(zz - (4 * tau_d + 2 * tau_p)) <= CLOSED_FORM_TOL * tau_c:
                    errors.append(f"{key}: chi2[Z,Z] = {zz:.6e} s, closed form "
                                  f"{4 * tau_d + 2 * tau_p:.6e} s")
                continue
            chi2 = chi_rows(rep, "two_local")
            if not np.abs(chi2).max() <= CHI2_TOL * tau_c:
                errors.append(f"{key}: max |chi2| / tau_c = {np.abs(chi2).max() / tau_c:.3e}")
            want = ref["catalog"][key]
            for color in ("red", "blue"):
                got = chi_rows(rep, f"one_local_{color}") / tau_c
                err = max_abs_diff(got, want["chi1_rel"][color])
                if not err <= CHI1_TOL:
                    errors.append(f"{key}: chi1 {color} / tau_c differs by {err:.3e}")
                if symmetry_flags(sym[color]) != want["flags"][color]:
                    errors.append(f"{key}: symmetry classes of {color} differ")
        return errors

    def accuracy(self, inputs, result, captured, ref):
        rel = [r.two_local_max_relative for (e, _, r, _) in result.outputs.values()
               if e["kind"] == "cr"]
        return {"control.chi2_rel_max": max(rel, default=0.0)}


# ---------------------------------------------------------------------------
# statevector-n10: one encoded state through one CR-XY4 cycle on 10 qubits
# ---------------------------------------------------------------------------

class Statevector(Workload):
    name = "statevector-n10"
    n = 10
    method = "CR-XY4"
    pool_type2 = 10  # pool: the 6 uniform states plus 10 seeded random ones

    def pool(self):
        return sim.prepare_states(self.n, 6, self.pool_type2, seed=0)

    def input_doc(self, poles):
        return {"device": sim.DeviceModel.default(n=self.n).colored().to_dict(),
                "method": self.method, "shape": {"kind": "square"},
                "samples_per_pulse": SAMPLES_PER_PULSE, "poles": list(poles)}

    def make_inputs(self, seed, workdir):
        pool = self.pool()
        index = _rng(self.name, seed).randrange(len(pool))
        path = os.path.join(workdir, "state.json")
        _write_json(path, self.input_doc(pool[index].poles))
        return {"input": path, "pool_index": index}

    def run_pass(self, inputs, workdir, tracer):
        with open(inputs["input"]) as fh:
            doc = json.load(fh)
        res = PassResult()
        try:
            device = sim.DeviceModel.from_dict(doc["device"])
            shape = crdd.PulseShape.from_dict(doc["shape"])
            spec = experiment.parse_method(doc["method"])
            schedules = spec.build(device.tau_p, shape, coloring=device.graph.coloring)(device.n)
            psi = sim.evolve(device, schedules, psi0=sim.product_state(doc["poles"]),
                             samples_per_pulse=doc["samples_per_pulse"])
            probs = sim.decode_probabilities(psi, doc["poles"])
        except Exception as exc:  # noqa: BLE001 - the failed evolution is recorded
            res.ops.append(Op("sim.evolve", False, False, repr(exc)))
            return res
        res.ops.append(Op("sim.evolve", True))
        res.outputs["probs"] = probs
        return res

    def _ref_err(self, inputs, result, ref):
        want = ref["arrays"]["statevector_probs"][inputs["pool_index"]]
        return max_abs_diff(result.outputs["probs"], want)

    def check_pass(self, inputs, workdir, result, ref):
        if "probs" in result.outputs:
            err = self._ref_err(inputs, result, ref)
            if not err <= PROP_TOL:
                return [f"decoded probabilities differ from the reference by {err:.3e}"]
        return []

    def accuracy(self, inputs, result, captured, ref):
        if "probs" not in result.outputs:
            return {}
        return {"sim.ref_err_max": self._ref_err(inputs, result, ref)}


WORKLOADS = {w.name: w for w in (
    Survival("survival-square", "square", ("IDLE", "SIM-XY4-2", "CR-XY4"), {"XY4": 3.0}),
    Survival("survival-drag", "gaussian_drag", ("SIM-XY4-2", "CR-XY4", "CR-(XY4,UR12)"), {}),
    Catalog(),
    Statevector(),
)}
