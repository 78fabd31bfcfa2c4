"""Exact statevector simulation of DD schedules under static ZZ crosstalk and
static 1-local fields, with shot-sampled survival probabilities.

The Hamiltonian H(t) = H_C(t) + H_err is applied matrix-free: transverse drive
and 1-local X/Y terms act qubit-wise, while the Z and ZZ sector enters through
a precomputed diagonal.  A cycle is cut at every segment edge.  Where every
qubit sits in a delay or a square pulse, H is constant on the cut interval and
its propagator is applied exactly (a phase when H is diagonal, else a scaled
Taylor series).  Intervals inside shaped envelopes take fixed-step RK4 with
drive coefficients sampled one-sidedly per step, so envelopes never leak
across segment boundaries.  Ideal pulses are exact instantaneous rotations.

Statevector dimension is capped at n = 14 qubits (dense representation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .sequences import QubitGraph, Segment, Sequence, envelope_amplitude, two_color

__all__ = [
    "MAX_QUBITS", "CapacityError", "DeviceModel", "StateSpec", "SurvivalPoint",
    "SurvivalRecord", "POLES", "prepare_states", "product_state",
    "dense_hamiltonian", "apply_hamiltonian", "build_hamiltonian",
    "HamiltonianOperator", "evolve", "cycle_propagator",
    "encode_decode_survival", "idle_schedule", "shot_rng",
]

MAX_QUBITS = 14

POLES = ("+z", "-z", "+x", "-x", "+y", "-y")
_SQ2 = 1 / math.sqrt(2)
_POLE_VECTORS = {
    "+z": np.array([1, 0], dtype=complex),
    "-z": np.array([0, 1], dtype=complex),
    "+x": np.array([_SQ2, _SQ2], dtype=complex),
    "-x": np.array([_SQ2, -_SQ2], dtype=complex),
    "+y": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "-y": np.array([_SQ2, -1j * _SQ2], dtype=complex),
}


class CapacityError(ValueError):
    """System size exceeds the dense-statevector budget."""


class IntegrationError(RuntimeError):
    """Statevector norm drifted beyond tolerance."""


# ---------------------------------------------------------------------------
# Device
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceModel:
    """Static error model on a qubit graph.

    ``zz``: per-edge ZZ coupling (rad/s), aligned with ``graph.edges``.
    ``b``: per-qubit static 1-local coefficients, shape (n, 3) for (X, Y, Z),
    in rad/s.  ``tau_p``: hardware pi-pulse duration in seconds.
    """

    graph: QubitGraph
    zz: np.ndarray
    b: np.ndarray
    tau_p: float

    def __post_init__(self):
        zz = np.asarray(self.zz, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if zz.shape != (len(self.graph.edges),):
            raise ValueError("zz must provide one coupling per edge")
        if b.shape != (self.graph.n, 3):
            raise ValueError("b must have shape (n, 3)")
        if not (np.all(np.isfinite(zz)) and np.all(np.isfinite(b))):
            raise ValueError("couplings must be finite")
        if not self.tau_p > 0:
            raise ValueError("tau_p must be > 0")
        object.__setattr__(self, "zz", zz)
        object.__setattr__(self, "b", b)

    @property
    def n(self):
        return self.graph.n

    @classmethod
    def default(cls, n=4, tau_p=5.69e-8, j_tau_p=5e-3, detuning_frac=0.1, seed=1234):
        """Crosstalk-dominant path device: uniform J with J*tau_p = ``j_tau_p``
        rad and seeded static Z detunings within +/- ``detuning_frac`` of J."""
        graph = two_color(QubitGraph.path(n))
        j = j_tau_p / tau_p
        zz = np.full(len(graph.edges), j)
        rng = np.random.default_rng(seed)
        b = np.zeros((n, 3))
        b[:, 2] = rng.uniform(-detuning_frac, detuning_frac, n) * j
        return cls(graph, zz, b, tau_p)

    def colored(self):
        if self.graph.coloring is None:
            return DeviceModel(two_color(self.graph), self.zz, self.b, self.tau_p)
        return self

    def subdevice(self, vertices):
        """Induced sub-device on the given vertices (relabeled 0..k-1)."""
        idx = {v: i for i, v in enumerate(vertices)}
        edges, zz = [], []
        for (u, v), j in zip(self.graph.edges, self.zz):
            if u in idx and v in idx:
                edges.append((idx[u], idx[v]))
                zz.append(j)
        graph = two_color(QubitGraph(len(vertices), tuple(edges)))
        return DeviceModel(graph, np.array(zz), self.b[list(vertices)], self.tau_p)

    def to_dict(self):
        return {
            "graph": self.graph.to_dict(),
            "zz_rad_per_s": [float(x) for x in self.zz],
            "b_rad_per_s": [[float(x) for x in row] for row in self.b],
            "tau_p_s": self.tau_p,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(QubitGraph.from_dict(d["graph"]), np.array(d["zz_rad_per_s"]),
                   np.array(d["b_rad_per_s"]), d["tau_p_s"])


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Separable product state given by one Bloch pole per qubit."""

    kind: str
    poles: tuple
    label: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("type1", "type2"):
            raise ValueError("kind must be type1 or type2")
        if any(p not in POLES for p in self.poles):
            raise ValueError(f"poles must be among {POLES}")
        if self.kind == "type1" and len(set(self.poles)) != 1:
            raise ValueError("type1 states assign one pole to all qubits")


def prepare_states(n, count_type1=6, count_type2=14, seed=0):
    """The uniform six-pole states plus seeded random pole assignments,
    deduplicated against each other."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = []
    for pole in POLES[:count_type1]:
        states.append(StateSpec("type1", (pole,) * n, f"type1_{pole}"))
    seen = {s.poles for s in states}
    rng = np.random.default_rng(seed)
    attempts = 0
    while sum(s.kind == "type2" for s in states) < count_type2:
        attempts += 1
        if attempts > 10000:
            raise ValueError(
                f"cannot draw {count_type2} distinct type2 states for n={n}; "
                f"only {6 ** n} pole assignments exist")
        poles = tuple(POLES[i] for i in rng.integers(0, 6, n))
        if poles in seen:
            continue
        seen.add(poles)
        idx = sum(s.kind == "type2" for s in states)
        states.append(StateSpec("type2", poles, f"type2_{idx:02d}", seed=seed))
    return states


def product_state(poles):
    psi = np.array([1.0 + 0.0j])
    for p in poles:
        psi = np.kron(psi, _POLE_VECTORS[p])
    return psi


def _apply_single_qubit(psi, gate, q, n):
    """Apply a 2x2 gate on qubit q to a (dim,) or (dim, k) array."""
    dim = 1 << n
    pre = 1 << q
    post = dim // (2 * pre)
    shaped = psi.reshape(pre, 2, post, -1)
    out = np.empty_like(shaped)
    out[:, 0] = gate[0, 0] * shaped[:, 0] + gate[0, 1] * shaped[:, 1]
    out[:, 1] = gate[1, 0] * shaped[:, 0] + gate[1, 1] * shaped[:, 1]
    return out.reshape(psi.shape)


def _equatorial_rotation(phase, angle):
    c = math.cos(angle / 2)
    s = math.sin(angle / 2)
    e = -1j * s * (math.cos(phase) - 1j * math.sin(phase))
    return np.array([[c, e], [-1j * s * (math.cos(phase) + 1j * math.sin(phase)), c]])


def decode_probabilities(psi, poles):
    """Computational-basis probabilities after undoing the encoding."""
    n = len(poles)
    out = psi.astype(complex, copy=True)
    for q, pole in enumerate(poles):
        vec = _POLE_VECTORS[pole]
        u_enc = np.column_stack([vec, np.array([-np.conj(vec[1]), np.conj(vec[0])])])
        out = _apply_single_qubit(out, u_enc.conj().T, q, n)
    return np.abs(out) ** 2


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def _check_capacity(n):
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the dense-statevector budget ({MAX_QUBITS})")


def hamiltonian_diagonal(device):
    """Diagonal of the static Z/ZZ sector (rad/s)."""
    n = device.n
    _check_capacity(n)
    dim = 1 << n
    idx = np.arange(dim)
    zsign = np.empty((n, dim))
    for q in range(n):
        zsign[q] = 1.0 - 2.0 * ((idx >> (n - 1 - q)) & 1)
    diag = device.b[:, 2] @ zsign
    for (u, v), j in zip(device.graph.edges, device.zz):
        diag += j * zsign[u] * zsign[v]
    return diag


def apply_hamiltonian(device, drives, psi):
    """H(t) psi for instantaneous per-qubit drives, matrix-free.

    ``drives``: (n, 2) array of transverse drive components (hx, hy) per qubit,
    i.e. the full Hamiltonian is sum_q (hx_q X_q + hy_q Y_q)/2 + H_err.
    """
    n = device.n
    _check_capacity(n)
    drives = np.asarray(drives, dtype=float)
    diag = hamiltonian_diagonal(device)
    out = (diag.reshape(diag.size, -1) * psi.reshape(diag.size, -1)).reshape(psi.shape)
    for q in range(n):
        ax = 0.5 * drives[q, 0] + device.b[q, 0]
        ay = 0.5 * drives[q, 1] + device.b[q, 1]
        if ax == 0.0 and ay == 0.0:
            continue
        gate = np.array([[0.0, ax - 1j * ay], [ax + 1j * ay, 0.0]])
        out = out + _apply_single_qubit(psi, gate, q, n)
    return out


def dense_hamiltonian(device, drives):
    """Dense matrix of H for small systems (test oracle)."""
    _check_capacity(device.n)
    # all columns in one block, so the diagonal is built once
    return apply_hamiltonian(device, drives, np.eye(1 << device.n, dtype=complex))


class HamiltonianOperator:
    """H(t) at fixed instantaneous drives, applied matrix-free."""

    def __init__(self, device, drives):
        _check_capacity(device.n)
        self.device = device
        self.drives = np.asarray(drives, dtype=float)
        self.dim = 1 << device.n

    def apply(self, psi):
        return apply_hamiltonian(self.device, self.drives, psi)

    __call__ = apply

    def dense(self):
        return dense_hamiltonian(self.device, self.drives)


def build_hamiltonian(device, drives):
    """Hermitian 2^n x 2^n operator for per-qubit instantaneous drives,
    returned in matrix-free form (capacity-capped at n = 14)."""
    return HamiltonianOperator(device, drives)


# ---------------------------------------------------------------------------
# Schedule compilation and evolution
# ---------------------------------------------------------------------------

def _normalize_schedules(device, schedules):
    if isinstance(schedules, Sequence):
        return [schedules] * device.n
    schedules = list(schedules)
    if len(schedules) != device.n:
        raise ValueError(f"need one schedule per qubit ({device.n}), got {len(schedules)}")
    durs = {s.duration for s in schedules}
    if len(durs) != 1:
        raise ValueError(f"schedule durations differ across qubits: {sorted(durs)}")
    return schedules


def _segment_table(seq):
    """(start, end, segment) for positive segments; events for zero-duration pulses."""
    spans, events = [], []
    t = 0.0
    for s in seq.segments:
        if s.kind == "pulse" and s.duration == 0.0:
            events.append((t, s.pulse))
        elif s.duration > 0:
            spans.append((t, t + s.duration, s))
            t += s.duration
    return spans, events


# RK4 step-angle cap: keeps |lambda_max| * h small enough that the per-step
# norm defect sits at the double-precision floor even when every qubit drives
# simultaneously.
_STEP_ANGLE_CAP = 6e-3


def _compile_cycle(device, schedules, samples_per_pulse, diag):
    """One cycle as time-ordered spans:

    * ``("rot", [(q, phase, angle), ...])``: instantaneous rotations;
    * ``("exact", t, ax, ay)``: an interval on which every qubit sits in a
      delay or a square pulse, so H is constant with rates ``ax, ay`` (n,);
    * ``("rk4", h, ax, ay)``: an interval with a shaped envelope, in RK4 steps
      ``h`` with rates (nsteps, 3, n) sampled at each step's start, midpoint
      and end.
    """
    n = device.n
    _check_capacity(n)
    if samples_per_pulse < 16:
        raise ValueError("samples_per_pulse must be >= 16")
    tables = [_segment_table(s) for s in schedules]
    duration = schedules[0].duration
    diag_bound = float(np.abs(diag).max())

    bounded = [sg.duration for s in schedules for sg in s.segments
               if sg.kind == "pulse" and sg.duration > 0]
    if bounded:
        ref = max(bounded)
    else:
        ref = min(sg.duration for s in schedules for sg in s.segments if sg.duration > 0)
    h_target = ref / samples_per_pulse

    tol = 1e-12 * duration
    cuts = {0.0, duration}
    for spans, events in tables:
        for (a, b_, _) in spans:
            cuts.add(a)
            cuts.add(b_)
        for (t, _) in events:
            cuts.add(t)
    cuts = sorted(cuts)
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > tol:
            merged.append(c)

    event_map = {}
    for q, (_, events) in enumerate(tables):
        for order, (t, pulse) in enumerate(events):
            key = min(range(len(merged)), key=lambda i: abs(merged[i] - t))
            event_map.setdefault(key, []).append((q, order, pulse))

    def covering(lo, hi):
        """(start, segment) of each qubit's segment spanning [lo, hi]."""
        segs = []
        for spans, _ in tables:
            seg = next(((a, s) for (a, b_, s) in spans if a - tol <= lo and hi <= b_ + tol),
                       None)
            if seg is None:
                raise RuntimeError("interval not covered by a single segment")
            segs.append(seg)
        return segs

    def drive(segs, times):
        """Rates ``ax, ay`` of shape ``times.shape + (n,)``."""
        ax = np.zeros(times.shape + (n,))
        ay = np.zeros(times.shape + (n,))
        for q, (a0, s) in enumerate(segs):
            if s.kind == "pulse":
                p = s.pulse
                local = np.clip(times - a0, 0.0, s.duration)
                wi, wq = envelope_amplitude(p.shape, p.flip_angle, s.duration,
                                            local.ravel())
                wi = wi.reshape(times.shape)
                wq = wq.reshape(times.shape)
                cph, sph = math.cos(p.phase), math.sin(p.phase)
                ax[..., q] = 0.5 * (wi * cph - wq * sph)
                ay[..., q] = 0.5 * (wi * sph + wq * cph)
            ax[..., q] += device.b[q, 0]
            ay[..., q] += device.b[q, 1]
        return ax, ay

    def rk4_tables(segs, lo, hi, nst):
        hs = (hi - lo) / nst
        offs = lo + np.arange(nst) * hs
        ax, ay = drive(segs, np.stack([offs, offs + hs / 2, offs + hs], axis=1))
        return hs, ax, ay

    spans_out = []
    for i in range(len(merged)):
        if i in event_map:
            rots = [(q, p.phase, p.flip_angle)
                    for q, _, p in sorted(event_map[i], key=lambda x: (x[0], x[1]))]
            spans_out.append(("rot", rots))
        if i == len(merged) - 1:
            break
        lo, hi = merged[i], merged[i + 1]
        segs = covering(lo, hi)
        if all(s.kind == "delay" or s.pulse.shape.kind == "square" for _, s in segs):
            ax, ay = drive(segs, np.array(lo))
            spans_out.append(("exact", hi - lo, ax, ay))
            continue
        nst = 2 * max(1, round((hi - lo) / (2 * h_target)))
        hs, ax, ay = rk4_tables(segs, lo, hi, nst)
        # transverse amplitudes sum across qubits in the worst eigenvalue
        amp = float(np.hypot(ax, ay).sum(axis=2).max()) + diag_bound
        if amp * hs > _STEP_ANGLE_CAP:
            nst = 2 * math.ceil(nst * amp * hs / _STEP_ANGLE_CAP / 2)
            hs, ax, ay = rk4_tables(segs, lo, hi, nst)
        spans_out.append(("rk4", np.full(nst, hs), ax, ay))
    return spans_out


def _run_cycle(spans, psi, diag, nq):
    for span in spans:
        if span[0] == "rot":
            for (q, phase, angle) in span[1]:
                psi = _apply_single_qubit(psi, _equatorial_rotation(phase, angle), q, nq)
            continue
        kind, h, ax, ay = span
        flat = np.ascontiguousarray(psi.reshape(psi.shape[0], -1))
        if kind == "exact":
            flat = _kernels.expm_action(flat, ax, ay, diag, h, nq)
        else:
            _kernels.rk4_evolve(flat, ax, ay, diag, h, 1)
        psi = flat.reshape(psi.shape)
    return psi


def evolve(device, schedules, repetitions=1, psi0=None, samples_per_pulse=256,
           norm_tol=1e-9):
    """Propagate a statevector (or propagator columns) through ``repetitions``
    cycles of the per-qubit schedules.

    Intervals where every qubit sits in a delay or a square pulse have a
    constant Hamiltonian and are propagated exactly; intervals inside a shaped
    (gaussian or DRAG) envelope take fixed RK4 steps, of which
    ``samples_per_pulse`` per longest pulse set the coarsest.  Raises
    IntegrationError when column norms drift beyond ``norm_tol``."""
    device = device.colored() if device.graph.coloring is None else device
    schedules = _normalize_schedules(device, schedules)
    diag = hamiltonian_diagonal(device)
    spans = _compile_cycle(device, schedules, samples_per_pulse, diag)
    dim = 1 << device.n
    if psi0 is None:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(psi0, dtype=complex).copy()
    norms_in = np.linalg.norm(psi.reshape(dim, -1), axis=0)
    for _ in range(repetitions):
        psi = _run_cycle(spans, psi, diag, device.n)
    norms_out = np.linalg.norm(psi.reshape(dim, -1), axis=0)
    drift = np.abs(norms_out / norms_in - 1.0).max()
    if drift > norm_tol:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {norm_tol:.1e}")
    return psi


def cycle_propagator(device, schedules, samples_per_pulse=256, norm_tol=1e-9):
    """One-cycle propagator matrix U(tau_c): the columns of the identity
    evolved together by ``evolve``, exactly wherever H is piecewise constant."""
    dim = 1 << device.n
    eye = np.eye(dim, dtype=complex)
    return evolve(device, schedules, repetitions=1, psi0=eye,
                  samples_per_pulse=samples_per_pulse, norm_tol=norm_tol)


def idle_schedule(duration):
    return Sequence((Segment.delay(duration),), name="IDLE")


# ---------------------------------------------------------------------------
# Survival sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalPoint:
    duration_s: float
    pulses_applied: int
    shots: int
    zero_count: int
    p0_estimate: float


@dataclass
class SurvivalRecord:
    method: str
    embedding_id: str
    state_id: str
    points: list = field(default_factory=list)


def shot_rng(*key):
    """Counter-based generator keyed by integers (order-independent tasks)."""
    entropy = [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    ss = np.random.SeedSequence(entropy=entropy)
    return np.random.Generator(np.random.Philox(seed=ss))


def sample_survival(probs, shots, rng):
    """Draw computational-basis bitstrings and count the all-zeros outcome."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.clip(np.asarray(probs, dtype=float).ravel(), 0.0, None)
    p = p / p.sum()
    draws = rng.choice(p.size, size=shots, p=p)
    return int(np.count_nonzero(draws == 0))


def encode_decode_survival(state, device, schedules, repetitions, shots, seed,
                           samples_per_pulse=256):
    """Encode the product state, protect for ``repetitions`` cycles, decode,
    and estimate the all-zeros survival probability from sampled shots."""
    device = device.colored() if device.graph.coloring is None else device
    schedules = _normalize_schedules(device, schedules)
    enc = product_state(state.poles)
    psi = evolve(device, schedules, repetitions=repetitions, psi0=enc,
                 samples_per_pulse=samples_per_pulse)
    probs = decode_probabilities(psi, state.poles)
    rng = shot_rng(seed) if isinstance(seed, int) else shot_rng(*seed)
    zeros = sample_survival(probs, shots, rng)
    duration = schedules[0].duration * repetitions
    pulses = schedules[0].pulse_count * repetitions
    return SurvivalPoint(duration, pulses, shots, zeros, zeros / shots)
