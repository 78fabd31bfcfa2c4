"""Experiment orchestration: method parsing, pulse-count-normalized duration
schedules, batch simulation, fitting, and summary tables.

Durations are sampled at integer multiples of each method's cycle with equal
pulse counts across active methods at every sampled point; IDLE runs pure
delays matched to the partner methods' wall times.  Cells are deterministic
under the master seed via counter-based per-cell generators, so results are
independent of execution order.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .fitting import fit_decay
from .sequences import (PulseShape, _csv_writer, _is_integer, _write_csv, canonical_name,
                        cr_dd, sim_dd)
from .sim import (POLES, DeviceModel, SurvivalPoint, SurvivalRecord, idle_schedule,
                  cycle_propagator, prepare_states, product_state, sample_survival,
                  shot_rng, survival_probability)
from .sim import decode_probabilities  # noqa: F401 - unused; perfbench wraps this name

__all__ = [
    "AlignmentError", "MethodSpec", "parse_method", "schedule_points",
    "ExperimentPlan", "default_plan", "run_experiment", "ExperimentResult",
    "fit_dataset", "mean_by_duration", "FitRow", "summarize", "SummaryTable",
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
    if m := _SIM_RE.match(s):
        spec = MethodSpec(s, "sim", (canonical_name(m.group(1)),), int(m.group(2) or 1))
    elif m := _CR_RE.match(s):
        if m.group(1):
            bases = (canonical_name(m.group(1)), canonical_name(m.group(2)))
        else:
            bases = (canonical_name(m.group(3)),)
        mode = "symmetric" if (m.group(5) or "S") == "S" else "asymmetric"
        spec = MethodSpec(s, "cr", bases, int(m.group(4) or 1), mode)
    else:
        raise ValueError(f"cannot parse method label {label!r}")
    if spec.k < 1:
        raise ValueError(f"invalid padding multiple in {label!r}")
    return spec


_SPACINGS = ("linear", "log2")


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
        raise ValueError(f"unknown spacing {spacing!r}; expected one of {_SPACINGS}")
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

# (key, field) of each entry of a plan JSON's "states" object
_STATES_KEYS = (("type1", "count_type1"), ("type2", "count_type2"), ("seed", "states_seed"))


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
            if not _is_integer(v):
                raise ValueError(f"embedding vertices must be integers, got {v!r}")
        object.__setattr__(self, "embeddings",
                           tuple(tuple(int(v) for v in e) for e in embeddings))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name, low, high in (("seed", None, None), ("states_seed", 0, None),
                                ("shots", 1, None), ("samples_per_pulse", 16, None),
                                ("target_pulses", 1, None), ("max_points", 1, None),
                                ("count_type1", 0, len(POLES)), ("count_type2", 0, None)):
            value = getattr(self, name)
            if (not _is_integer(value) or (low is not None and value < low)
                    or (high is not None and value > high)):
                bound = "".join(f" {op} {b}" for op, b in ((">=", low), ("and <=", high))
                                if b is not None)
                raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
        if self.spacing not in _SPACINGS:
            raise ValueError(f"spacing must be one of {_SPACINGS}, got {self.spacing!r}")
        # a repeat would write its cells twice, with other shot draws, and the
        # fits would pool them; methods compare as their rows are labelled
        for what, items in (("method", [parse_method(m).label for m in self.methods]),
                            ("embedding", self.embeddings)):
            for item in items:
                if items.count(item) > 1:
                    raise ValueError(f"{what} {item} appears more than once")
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
            "states": {key: getattr(self, name) for key, name in _STATES_KEYS},
            "samples_per_pulse": self.samples_per_pulse,
            "shape": self.shape.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        """Plan of a plan JSON; each optional key it omits takes its field's default."""
        optional = {key: d[key] for key in ("spacing", "max_points", "samples_per_pulse")
                    if key in d}
        states = d.get("states", {})
        optional.update((name, states[key]) for key, name in _STATES_KEYS if key in states)
        if "shape" in d:
            optional["shape"] = PulseShape.from_dict(d["shape"])
        return cls(device=DeviceModel.from_dict(d["device"]), embeddings=d["embeddings"],
                   methods=d["methods"], target_pulses=d["target_pulses"], shots=d["shots"],
                   seed=d["seed"], **optional)


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
        """Results-CSV rows of every record, sorted by (method, embedding, state, duration)."""
        return sorted(_record_rows(self.records), key=lambda r: r[:4])

    def row_dicts(self):
        """Rows in the results-CSV schema, ready for ``fit_dataset``."""
        return [dict(zip(RESULTS_HEADER, row)) for row in self.rows()]


def run_experiment(plan, out_path=None):
    """Execute every (embedding, state, method, duration) cell through the
    exact simulator.  Per-cell failures are recorded and the run continues.
    Writes the results CSV incrementally when ``out_path`` is given."""
    specs = [parse_method(m) for m in plan.methods]
    timing = {}
    for s in specs:
        if s.kind == "idle":
            timing[s.label] = (0, 0.0)
        else:
            # red and blue cycles share their pulse count and duration
            cycle = s.build(plan.device.tau_p, plan.shape, coloring=("R",))(1)[0]
            timing[s.label] = (cycle.pulse_count, cycle.duration)
    points = schedule_points(timing, plan.target_pulses, plan.spacing, plan.max_points)

    records, failures = [], []
    fh = open(out_path, "w", newline="") if out_path else None
    try:
        if fh:
            writer = _csv_writer(fh, RESULTS_HEADER)
        for e_idx, emb in enumerate(plan.embeddings):
            sub = plan.device.subdevice(emb)
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
                new = [SurvivalRecord(spec.label, emb_id, state.label, cell)
                       for state, cell in zip(states, cells)]
                records += new
                if fh:
                    # append completed cells as they land; the finished file is
                    # rewritten in canonical order below
                    writer.writerows(_format_row(row) for row in _record_rows(new))
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
        # only CR needs the coloring; on an odd cycle colored() names it
        coloring = sub.colored().graph.coloring if spec.kind == "cr" else None
        schedules = spec.build(sub.tau_p, plan.shape, coloring=coloring)(sub.n)
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

# (column, type) of the results CSV, in file order
_RESULTS_COLUMNS = (("method", str), ("embedding_id", str), ("state_id", str),
                    ("duration_s", float), ("pulses", int), ("shots", int), ("zeros", int),
                    ("p0", float))
RESULTS_HEADER = tuple(column for column, _ in _RESULTS_COLUMNS)
# (column, FitRow field, type) of the fits CSV, in file order
_FITS_COLUMNS = (("method", "method", str), ("embedding_id", "embedding_id", str),
                 ("A", "A", float), ("gamma_per_s", "gamma", float), ("c", "c", float),
                 ("tau_gamma_s", "tau_gamma", float), ("rss", "rss", float),
                 ("flag", "flag", str))
FITS_HEADER = tuple(column for column, _, _ in _FITS_COLUMNS)
SUMMARY_HEADER = ("n", "method", "sim_median_tau_s", "sim_iqr_s", "cr_median_tau_s",
                  "cr_iqr_s", "sim_over_idle", "cr_over_sim")


def _read_csv(path, columns):
    """Rows as dicts of the ``(column, type)`` pairs, each column found by its
    header name and cast by its type; blank lines are skipped.  A missing
    column, or a row with fewer fields than the header, raises ValueError
    naming the file (and the row's line)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        missing = [column for column, _ in columns if column not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        cells = [(column, header.index(column), cast) for column, cast in columns]
        body = list(reader)
    for line, row in enumerate(body, 2):
        if row and len(row) < len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} fields, "
                             f"the header {len(header)}")
    return [{column: cast(row[i]) for column, i, cast in cells} for row in body if row]


def _record_rows(records):
    """Results-CSV rows of survival records, in record and point order."""
    return [(rec.method, rec.embedding_id, rec.state_id, pt.duration_s, pt.pulses_applied,
             pt.shots, pt.zero_count, pt.p0_estimate) for rec in records for pt in rec.points]


def _format_row(row):
    m, e, s, dur, pulses, shots, zeros, p0 = row
    return (m, e, s, float(dur), pulses, shots, zeros, float(p0))


def write_results_csv(result, path):
    _write_csv(path, RESULTS_HEADER, (_format_row(row) for row in result.rows()))


def read_results_csv(path):
    """Rows as dicts (method, embedding_id, state_id, duration_s, pulses,
    shots, zeros, p0)."""
    return _read_csv(path, _RESULTS_COLUMNS)


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
    _write_csv(path, FITS_HEADER,
               ([getattr(f, name) for _, name, _ in _FITS_COLUMNS] for f in fits))


def read_fits_csv(path):
    rows = _read_csv(path, [(column, cast) for column, _, cast in _FITS_COLUMNS])
    return [FitRow(**{name: d[column] for column, name, _ in _FITS_COLUMNS}) for d in rows]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryTable:
    rows: tuple  # (n, base, sim_median, sim_iqr, cr_median, cr_iqr, sim/idle, cr/sim)

    def to_csv(self, path):
        _write_csv(path, SUMMARY_HEADER, self.rows)  # None is an empty cell

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
