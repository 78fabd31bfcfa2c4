"""Experiment orchestration: method parsing, pulse-count-normalized duration
schedules, embedding generation, batch simulation, fitting, and summary
tables.

Durations are sampled at integer multiples of each method's cycle with equal
pulse counts across active methods at every sampled point; IDLE runs pure
delays matched to the partner methods' wall times.  Cells are deterministic
under the master seed via counter-based per-cell generators, so results are
independent of execution order.
"""
from __future__ import annotations

import csv
import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .fitting import fit_decay
from .sequences import PulseShape, canonical_name, cr_dd, sim_dd
from .sim import (POLES, DeviceModel, SurvivalPoint, SurvivalRecord, idle_schedule,
                  cycle_propagator, prepare_states, product_state, sample_survival,
                  shot_rng, survival_probability)
from .sim import decode_probabilities  # noqa: F401 - unused; perfbench wraps this name

__all__ = [
    "AlignmentError", "MethodSpec", "parse_method", "schedule_points",
    "ExperimentPlan", "default_plan", "run_experiment", "ExperimentResult",
    "fit_dataset", "mean_by_duration", "FitRow", "summarize", "SummaryTable", "path_embeddings",
    "write_results_csv", "read_results_csv", "write_fits_csv", "read_fits_csv",
]


class AlignmentError(ValueError):
    def __init__(self, lcm, target):
        self.lcm = lcm
        super().__init__(
            f"cycle pulse counts only align at multiples of {lcm} pulses, "
            f"beyond the target of {target}")


_SIM_RE = re.compile(r"^SIM-([A-Za-z0-9]+?)(?:-(\d+))?$")
_CR_RE = re.compile(
    r"^CR-(?:\(([A-Za-z0-9]+),([A-Za-z0-9]+)\)|([A-Za-z0-9]+?))(?:-(\d+)_?([SA]))?$")


@dataclass(frozen=True)
class MethodSpec:
    """Parsed suppression method: IDLE, SIM-<base>[-k], or
    CR-<base>[-k(S|A)] / CR-(<red>,<blue>)[-k(S|A)]."""

    label: str
    kind: str  # idle | sim | cr
    bases: tuple = ()
    k: int = 1
    pad_mode: str = "symmetric"

    def base_name(self):
        if self.kind == "idle":
            return "IDLE"
        if len(self.bases) == 1:
            return self.bases[0]
        return "(" + ",".join(self.bases) + ")"

    def build(self, tau_p, shape, coloring=None):
        """Per-qubit cycle schedules; CR needs the target coloring."""
        if self.kind == "idle":
            raise ValueError("IDLE schedules are built per duration")
        if self.kind == "sim":
            seq = sim_dd(self.bases[0], self.k, tau_p, shape)
            return lambda n: [seq] * n
        sched = cr_dd(self.bases[0], self.bases[1] if len(self.bases) > 1 else None,
                      tau_p=tau_p, shape=shape, k=self.k, mode=self.pad_mode)
        if coloring is None:
            raise ValueError("CR methods need a colored graph")
        return lambda n: [sched.red if coloring[v] == "R" else sched.blue
                          for v in range(n)]


def parse_method(label):
    s = label.strip()
    if s.upper() == "IDLE":
        return MethodSpec(s.upper(), "idle")
    m = _SIM_RE.match(s)
    if m:
        base = canonical_name(m.group(1))
        k = int(m.group(2)) if m.group(2) else 1
        if k < 1:
            raise ValueError(f"invalid padding multiple in {label!r}")
        return MethodSpec(s, "sim", (base,), k)
    m = _CR_RE.match(s)
    if m:
        if m.group(1):
            bases = (canonical_name(m.group(1)), canonical_name(m.group(2)))
        else:
            bases = (canonical_name(m.group(3)),)
        k = int(m.group(4)) if m.group(4) else 1
        mode = "symmetric" if (m.group(5) or "S") == "S" else "asymmetric"
        return MethodSpec(s, "cr", bases, k, mode)
    raise ValueError(f"cannot parse method label {label!r}")


def schedule_points(methods, target_pulses, spacing="linear", max_points=16):
    """Per-method duration lists (cycles, duration_s, pulses).

    ``methods`` maps labels to (pulses per cycle, cycle duration in s); IDLE-like
    entries with zero pulses receive the union of the active methods' wall
    times.  Active methods share identical pulse counts at every point.
    """
    active = {k: v for k, v in methods.items() if v[0] > 0}
    if not active:
        raise ValueError("need at least one pulsed method")
    g = math.lcm(*(v[0] for v in active.values()))
    if g > target_pulses:
        raise AlignmentError(g, target_pulses)
    final = (target_pulses // g) * g
    units = final // g
    if spacing == "linear":
        stride = -(-units // max_points)  # ceil: at most max_points points
        unit_counts = list(range(stride, units + 1, stride))
        if unit_counts[-1] != units:
            unit_counts.append(units)
    elif spacing == "log2":
        unit_counts = sorted({2 ** j for j in range(units.bit_length())
                              if 2 ** j <= units} | {units})
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    pulse_counts = [u * g for u in unit_counts]

    out = {}
    for label, (ppc, tau_cycle) in active.items():
        pts = []
        for pc in pulse_counts:
            cycles = pc // ppc
            pts.append((cycles, cycles * tau_cycle, pc))
        out[label] = pts
    idle_durations = []
    for d in sorted({d for pts in out.values() for (_, d, _) in pts}):
        # wall times of different cycles that meet within 1e-12 relative
        # (the cut's tolerance) are one duration, kept at the earliest
        if not idle_durations or d - idle_durations[-1] > 1e-12 * d:
            idle_durations.append(d)
    for label, (ppc, _) in methods.items():
        if ppc == 0:
            out[label] = [(1, d, 0) for d in idle_durations]
    return out


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    device: DeviceModel
    embeddings: tuple
    methods: tuple
    target_pulses: int
    shots: int
    seed: int
    spacing: str = "linear"
    max_points: int = 16
    count_type1: int = 6
    count_type2: int = 14
    states_seed: int = 0
    samples_per_pulse: int = 256
    shape: PulseShape = field(default_factory=PulseShape.square)

    def __post_init__(self):
        embeddings = tuple(tuple(e) for e in self.embeddings)
        if not embeddings or not all(embeddings):
            raise ValueError("a plan needs at least one embedding and no empty one, "
                             f"got {embeddings!r}")
        for v in (v for emb in embeddings for v in emb):
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"embedding vertices must be integers, got {v!r}")
        object.__setattr__(self, "embeddings",
                           tuple(tuple(int(v) for v in e) for e in embeddings))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name, low, high in (("shots", 1, None), ("samples_per_pulse", 16, None),
                                ("target_pulses", 1, None), ("max_points", 1, None),
                                ("count_type1", 0, len(POLES)), ("count_type2", 0, None)):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < low or (high is not None and value > high)):
                bound = f">= {low}" + (f" and <= {high}" if high is not None else "")
                raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
        for m in self.methods:
            parse_method(m)
        for emb in self.embeddings:
            if len(set(emb)) != len(emb):
                raise ValueError(f"embedding {emb} repeats vertices")
            if any(not 0 <= v < self.device.n for v in emb):
                raise ValueError(f"embedding {emb} out of device range")

    def to_dict(self):
        return {
            "device": self.device.to_dict(),
            "embeddings": [list(e) for e in self.embeddings],
            "methods": list(self.methods),
            "target_pulses": self.target_pulses,
            "shots": self.shots,
            "seed": self.seed,
            "spacing": self.spacing,
            "max_points": self.max_points,
            "states": {"type1": self.count_type1, "type2": self.count_type2,
                       "seed": self.states_seed},
            "samples_per_pulse": self.samples_per_pulse,
            "shape": self.shape.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        states = d.get("states", {})
        return cls(
            device=DeviceModel.from_dict(d["device"]),
            embeddings=tuple(tuple(e) for e in d["embeddings"]),
            methods=tuple(d["methods"]),
            target_pulses=d["target_pulses"],
            shots=d["shots"],
            seed=d["seed"],
            spacing=d.get("spacing", "linear"),
            max_points=d.get("max_points", 16),
            count_type1=states.get("type1", 6),
            count_type2=states.get("type2", 14),
            states_seed=states.get("seed", 0),
            samples_per_pulse=d.get("samples_per_pulse", 256),
            shape=PulseShape.from_dict(d.get("shape", {"kind": "square"})),
        )


def default_plan(seed=20250810, shots=1000, cycles_exp=13):
    """Crosstalk-dominant four-qubit demonstration: IDLE vs SIM-XY4-2 vs
    CR-XY4 with log-spaced durations out to 2**cycles_exp cycles."""
    device = DeviceModel.default()
    return ExperimentPlan(
        device=device,
        embeddings=((0, 1, 2, 3),),
        methods=("IDLE", "SIM-XY4-2", "CR-XY4"),
        target_pulses=4 * (2 ** cycles_exp),
        shots=shots,
        seed=seed,
        spacing="log2",
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _binary_power(base, cache, exponent):
    """base ** exponent via cached squarings (deterministic)."""
    result = None
    bit = 0
    e = exponent
    while e:
        if len(cache) <= bit:
            cache.append(cache[-1] @ cache[-1])
        if e & 1:
            p = cache[bit]
            result = p if result is None else p @ result
        e >>= 1
        bit += 1
    return result


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    records: list
    failures: list

    def rows(self):
        out = []
        for rec in self.records:
            for pt in rec.points:
                out.append((rec.method, rec.embedding_id, rec.state_id,
                            pt.duration_s, pt.pulses_applied, pt.shots,
                            pt.zero_count, pt.p0_estimate))
        out.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
        return out

    def row_dicts(self):
        """Rows in the results-CSV schema, ready for ``fit_dataset``."""
        return [dict(method=m, embedding_id=e, state_id=s, duration_s=d,
                     pulses=p, shots=sh, zeros=z, p0=p0)
                for (m, e, s, d, p, sh, z, p0) in self.rows()]


def run_experiment(plan, out_path=None):
    """Execute every (embedding, state, method, duration) cell through the
    exact simulator.  Per-cell failures are recorded and the run continues.
    Writes the results CSV incrementally when ``out_path`` is given."""
    device = plan.device.colored()
    specs = [parse_method(m) for m in plan.methods]
    timing = {}
    for s in specs:
        if s.kind == "idle":
            timing[s.label] = (0, 0.0)
        else:
            cycle = s.build(device.tau_p, plan.shape, coloring=device.graph.coloring)(1)[0]
            timing[s.label] = (cycle.pulse_count, cycle.duration)
    points = schedule_points(timing, plan.target_pulses, plan.spacing, plan.max_points)

    records, failures = [], []
    fh = open(out_path, "w", newline="") if out_path else None
    try:
        if fh:
            writer = _csv_writer(fh)
            writer.writerow(RESULTS_HEADER)
        for e_idx, emb in enumerate(plan.embeddings):
            sub = device.subdevice(emb)
            emb_id = "-".join(str(v) for v in emb)
            states = prepare_states(len(emb), plan.count_type1, plan.count_type2,
                                    plan.states_seed)
            encs = np.column_stack([product_state(st.poles) for st in states])
            for m_idx, spec in enumerate(specs):
                try:
                    cells = _run_method_cells(plan, sub, spec, points[spec.label],
                                              encs, e_idx, m_idx)
                except Exception as exc:  # noqa: BLE001 - skip-and-log policy
                    failures.append((emb_id, spec.label, repr(exc)))
                    continue
                for s_idx, state in enumerate(states):
                    rec = SurvivalRecord(spec.label, emb_id, state.label, cells[s_idx])
                    records.append(rec)
                if fh:
                    # append completed cells as they land; the finished file is
                    # rewritten in canonical order below
                    for pt_list, state in zip(cells, states):
                        for pt in pt_list:
                            writer.writerow(_format_row((spec.label, emb_id, state.label,
                                                         pt.duration_s, pt.pulses_applied,
                                                         pt.shots, pt.zero_count,
                                                         pt.p0_estimate)))
                    fh.flush()
    finally:
        if fh:
            fh.close()
    result = ExperimentResult(plan, records, failures)
    if out_path:
        write_results_csv(result, out_path)
    return result


def _run_method_cells(plan, sub, spec, method_points, encs, e_idx, m_idx):
    """Survival points for every (state, duration) of one method on one
    embedding, one point list per column (encoded state) of ``encs``; every
    state's p0 at a duration comes from one ``U @ encs`` product."""
    if spec.kind == "idle":
        props = (cycle_propagator(sub, idle_schedule(dur),
                                  samples_per_pulse=plan.samples_per_pulse)
                 for _, dur, _ in method_points)
    else:
        schedules = spec.build(sub.tau_p, plan.shape, coloring=sub.graph.coloring)(sub.n)
        u_cycle = cycle_propagator(sub, schedules, samples_per_pulse=plan.samples_per_pulse)
        cache = [u_cycle]
        props = (_binary_power(u_cycle, cache, cycles) for cycles, _, _ in method_points)
    cells = [[] for _ in range(encs.shape[1])]
    for d_idx, (u, (_, dur, pulses)) in enumerate(zip(props, method_points)):
        p0 = survival_probability(encs, u @ encs)
        for s_idx, cell in enumerate(cells):
            rng = shot_rng(plan.seed, e_idx, (m_idx << 32) | s_idx, d_idx)
            zeros = sample_survival((p0[s_idx], 1.0 - p0[s_idx]), plan.shots, rng)
            cell.append(SurvivalPoint(dur, pulses, plan.shots, zeros, zeros / plan.shots))
    return cells


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

RESULTS_HEADER = ("method", "embedding_id", "state_id", "duration_s", "pulses", "shots",
                  "zeros", "p0")
FITS_HEADER = ("method", "embedding_id", "A", "gamma_per_s", "c", "tau_gamma_s", "rss", "flag")
SUMMARY_HEADER = ("n", "method", "sim_median_tau_s", "sim_iqr_s", "cr_median_tau_s",
                  "cr_iqr_s", "sim_over_idle", "cr_over_sim")


def _csv_writer(fh):
    # minimal quoting: only fields holding a comma (e.g. "CR-(XY4,UR12)") are quoted
    return csv.writer(fh, lineterminator="\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _format_row(row):
    m, e, s, dur, pulses, shots, zeros, p0 = row
    return (m, e, s, float(dur), pulses, shots, zeros, float(p0))


def write_results_csv(result, path):
    _write_csv(path, RESULTS_HEADER, (_format_row(row) for row in result.rows()))


def read_results_csv(path):
    """Rows as dicts (method, embedding_id, state_id, duration_s, pulses,
    shots, zeros, p0)."""
    return [{"method": d["method"], "embedding_id": d["embedding_id"],
             "state_id": d["state_id"], "duration_s": float(d["duration_s"]),
             "pulses": int(d["pulses"]), "shots": int(d["shots"]),
             "zeros": int(d["zeros"]), "p0": float(d["p0"])}
            for d in _read_csv(path)]


@dataclass(frozen=True)
class FitRow:
    method: str
    embedding_id: str
    A: float
    gamma: float
    c: float
    tau_gamma: float
    rss: float
    flag: str


def mean_by_duration(rows):
    """Sorted durations of ``rows`` and the mean p0 at each."""
    by_dur = {}
    for r in rows:
        by_dur.setdefault(r["duration_s"], []).append(r["p0"])
    durs = sorted(by_dur)
    return durs, [float(np.mean(by_dur[d])) for d in durs]


def fit_dataset(rows):
    """Fit the state-averaged survival trace per (method, embedding)."""
    groups = {}
    for r in rows:
        groups.setdefault((r["method"], r["embedding_id"]), []).append(r)
    out = []
    for (method, emb), items in sorted(groups.items()):
        fit = fit_decay(list(zip(*mean_by_duration(items))))
        out.append(FitRow(method, emb, fit.A, fit.gamma, fit.c,
                          fit.tau_gamma, fit.rss, fit.flag))
    return out


def write_fits_csv(fits, path):
    _write_csv(path, FITS_HEADER, ((f.method, f.embedding_id, f.A, f.gamma, f.c,
                                    f.tau_gamma, f.rss, f.flag) for f in fits))


def read_fits_csv(path):
    return [FitRow(d["method"], d["embedding_id"], float(d["A"]), float(d["gamma_per_s"]),
                   float(d["c"]), float(d["tau_gamma_s"]), float(d["rss"]), d["flag"])
            for d in _read_csv(path)]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryTable:
    rows: tuple  # (n, base, sim_median, sim_iqr, cr_median, cr_iqr, sim/idle, cr/sim)

    def to_csv(self, path):
        # None -> empty cell; floats (numpy ones too) are written as repr(float)
        _write_csv(path, SUMMARY_HEADER,
                   ([v if v is None or isinstance(v, (str, int)) else float(v) for v in row]
                    for row in self.rows))

    def ratio(self, base, column):
        if column not in ("sim_over_idle", "cr_over_sim"):
            raise ValueError(f"column must be sim_over_idle or cr_over_sim, got {column!r}")
        for row in self.rows:
            if row[1] == base:
                return row[6] if column == "sim_over_idle" else row[7]
        raise KeyError(base)


def _median_iqr(values):
    v = np.asarray(values, dtype=float)
    med = float(np.median(v))
    if np.all(np.isfinite(v)):
        iqr = float(np.percentile(v, 75) - np.percentile(v, 25))
    else:
        iqr = math.inf if np.isinf(np.median(v)) else float("nan")
    return med, iqr


def summarize(fits):
    """Median and IQR of tau_gamma over embeddings per method, with SIM/IDLE
    and CR/SIM ratio columns, in one block of rows per embedding size n (the
    vertex count of each fit's ``embedding_id``), smallest first.  When
    several IDLE datasets exist the better (larger) median is used."""
    by_size = {}
    for f in fits:
        by_size.setdefault(len(f.embedding_id.split("-")), []).append(f)
    rows = []
    for n in sorted(by_size):
        idle, per_base = {}, {}
        for f in by_size[n]:
            spec = parse_method(f.method)
            if spec.kind == "idle":
                idle.setdefault(f.method, []).append(f.tau_gamma)
            else:
                per_base.setdefault(spec.base_name(), {}).setdefault(
                    spec.kind, []).append(f.tau_gamma)
        idle_median = None
        if idle:
            idle_median, idle_iqr = max(map(_median_iqr, idle.values()), key=lambda s: s[0])
            rows.append((n, "IDLE", idle_median, idle_iqr, None, None, None, None))
        for base in sorted(per_base):
            kinds = per_base[base]
            sim_med, sim_iqr = _median_iqr(kinds["sim"]) if "sim" in kinds else (None, None)
            cr_med, cr_iqr = _median_iqr(kinds["cr"]) if "cr" in kinds else (None, None)
            rows.append((n, base, sim_med, sim_iqr, cr_med, cr_iqr,
                         sim_med / idle_median if sim_med is not None and idle_median else None,
                         cr_med / sim_med if cr_med is not None and sim_med else None))
    return SummaryTable(tuple(rows))


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def path_embeddings(graph, length, count):
    """Deterministic contiguous-path embeddings, greedily chosen to reduce
    vertex overlap between selections."""
    if length < 1 or length > graph.n:
        raise ValueError("invalid embedding length")
    paths = []
    seen = set()

    def extend(path):
        if len(path) == length:
            key = tuple(path) if path[0] <= path[-1] else tuple(reversed(path))
            if key not in seen:
                seen.add(key)
                paths.append(key)
            return
        for w in graph.neighbors(path[-1]):
            if w not in path:
                extend(path + [w])

    for v in range(graph.n):
        extend([v])
    chosen = []
    used = set()
    for _ in range(min(count, len(paths))):
        best = min(paths, key=lambda p: (len(used & set(p)), p))
        paths.remove(best)
        chosen.append(best)
        used |= set(best)
    return tuple(chosen)
