"""Exact statevector simulation of DD schedules under static ZZ crosstalk and
static 1-local fields, with shot-sampled survival probabilities.

The Hamiltonian H(t) = H_C(t) + H_err is never stored as a matrix: transverse
drive and 1-local X/Y terms act qubit-wise, while the Z and ZZ sector enters
through a precomputed diagonal.  A cycle is cut at every segment edge.  Where
every qubit sits in a delay or a square pulse, H is constant on the cut
interval and its propagator is applied exactly (a phase when H is diagonal,
else a scaled Taylor series).  Intervals inside shaped envelopes take
fixed-step RK4 with drive coefficients sampled one-sidedly per step, so
envelopes never leak across segment boundaries; RK4 on enough columns of a
small system composes the transfer matrices of its steps (see ``evolve``).
Ideal pulses are exact instantaneous rotations.

Pulsed intervals, square or shaped, that differ only in the drive phases of
their pulses share one propagator: a pulse of phase phi on qubit q is the
phase-0 pulse conjugated by exp(-i phi Z_q / 2), and that rotation commutes
with the Z/ZZ diagonal (the virtual-Z identity, McKay et al., PRA 96, 022330
(2017)).  Every interval is applied as D P D^dag, D that diagonal rotation
and P its phase-0 propagator: built once on the identity and reused wherever
that is cheaper than propagating every occurrence, else propagated on the
rotated columns.  Delay-only intervals, and those where a pulsing qubit has
a static X/Y field, run at their real phases with D = 1.

Statevector dimension is capped at n = 14 qubits (dense representation).
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import IntegrationError
from .control import _step
from .sequences import (
    QubitGraph, Segment, Sequence, _common_cut, envelope_amplitude, two_color,
)

__all__ = [
    "MAX_QUBITS", "CapacityError", "DeviceModel", "StateSpec", "SurvivalPoint",
    "SurvivalRecord", "POLES", "IntegrationError", "prepare_states", "product_state",
    "dense_hamiltonian", "evolve", "cycle_propagator", "encode_decode_survival",
    "idle_schedule", "shot_rng",
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


# ---------------------------------------------------------------------------
# Device
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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


def _zsign(n):
    """(n, 2^n) eigenvalue of each Z_q on each computational basis state."""
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx >> (n - 1 - np.arange(n))[:, None]) & 1)


def hamiltonian_diagonal(device):
    """Diagonal of the static Z/ZZ sector (rad/s)."""
    _check_capacity(device.n)
    zsign = _zsign(device.n)
    diag = device.b[:, 2] @ zsign
    for (u, v), j in zip(device.graph.edges, device.zz):
        diag += j * zsign[u] * zsign[v]
    return diag


def dense_hamiltonian(device, drives):
    """Dense 2^n x 2^n matrix of H for per-qubit instantaneous drives, for
    small systems (test oracle).

    ``drives``: (n, 2) array of transverse drive components (hx, hy) per qubit,
    i.e. the full Hamiltonian is sum_q (hx_q X_q + hy_q Y_q)/2 + H_err.
    """
    n = device.n
    drives = np.asarray(drives, dtype=float)
    h = np.diag(hamiltonian_diagonal(device)).astype(complex)
    eye = np.eye(1 << n, dtype=complex)
    for q in range(n):
        ax = 0.5 * drives[q, 0] + device.b[q, 0]
        ay = 0.5 * drives[q, 1] + device.b[q, 1]
        gate = np.array([[0.0, ax - 1j * ay], [ax + 1j * ay, 0.0]])
        h += _apply_single_qubit(eye, gate, q, n)
    return h


# ---------------------------------------------------------------------------
# Schedule compilation and evolution
# ---------------------------------------------------------------------------

def _normalize_schedules(device, schedules):
    if isinstance(schedules, Sequence):
        return [schedules] * device.n
    schedules = list(schedules)
    if len(schedules) != device.n:
        raise ValueError(f"need one schedule per qubit ({device.n}), got {len(schedules)}")
    return schedules


# RK4 step-angle cap: keeps |lambda_max| * h small enough that the per-step
# norm defect sits at the double-precision floor even when every qubit drives
# simultaneously.
_STEP_ANGLE_CAP = 6e-3


def _compile_cycle(device, schedules, samples_per_pulse, diag):
    """One cycle as time-ordered spans ``(kind, key, phis, ...)``:

    * ``("rot", None, None, [(q, phase, angle), ...])``: ideal rotations;
    * ``("exact", key, phis, t, ax, ay)``: every qubit sits in a delay or a
      square pulse, so H is constant with rates ``ax, ay`` (n,) for ``t``;
    * ``("rk4", key, phis, h, ax, ay)``: a shaped envelope, in RK4 steps
      ``h`` with rates (nsteps, 3, n) at each step's start, midpoint and end.

    An interval in which some qubit pulses and no pulsing qubit carries a
    static X/Y field, square or shaped, is keyed by its length and, per
    pulsing qubit, ``(q, shape, flip_angle, segment duration, offset into
    the segment)``, lengths on the ``tol`` grid.  Its rates are the phase-0
    pulses', sampled once per key, and ``phis`` (n,) holds each pulsing
    qubit's drive phase (0 elsewhere): its propagator is the key's
    conjugated by ``exp(-i/2 sum_q phis_q Z_q)``, which commutes with the
    Z/ZZ diagonal.  Otherwise ``key`` is None, ``phis`` is 0 and the rates
    carry the real phases.
    """
    n = device.n
    _check_capacity(n)
    h_target = _step(schedules, samples_per_pulse)
    edges, pieces, events = _common_cut(schedules)
    diag_bound = float(np.abs(diag).max())
    transverse = np.any(device.b[:, :2] != 0.0, axis=1)
    tol = 1e-12 * schedules[0].duration  # key grid: the cut's merge tolerance

    def drive(segs, times, phased=True):
        """Rates ``ax, ay`` of shape ``times.shape + (n,)``; with ``phased``
        False every pulse is driven at phase 0."""
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
                phase = p.phase if phased else 0.0
                cph, sph = math.cos(phase), math.sin(phase)
                ax[..., q] = 0.5 * (wi * cph - wq * sph)
                ay[..., q] = 0.5 * (wi * sph + wq * cph)
            ax[..., q] += device.b[q, 0]
            ay[..., q] += device.b[q, 1]
        return ax, ay

    def tables(segs, lo, hi, phased):
        """``("exact", t, ax, ay)`` when every qubit sits in a delay or a
        square pulse, else ``("rk4", h, ax, ay)`` in RK4 steps."""
        if all(s.kind == "delay" or s.pulse.shape.kind == "square" for _, s in segs):
            return ("exact", hi - lo, *drive(segs, np.array(lo), phased))

        def sample(nst):
            hs = (hi - lo) / nst
            offs = lo + np.arange(nst) * hs
            return hs, *drive(segs, np.stack([offs, offs + hs / 2, offs + hs], axis=1),
                              phased)

        nst = 2 * max(1, round((hi - lo) / (2 * h_target)))
        hs, ax, ay = sample(nst)
        # transverse amplitudes sum across qubits in the worst eigenvalue
        amp = float(np.hypot(ax, ay).sum(axis=2).max()) + diag_bound
        if amp * hs > _STEP_ANGLE_CAP:
            nst = 2 * math.ceil(nst * amp * hs / _STEP_ANGLE_CAP / 2)
            hs, ax, ay = sample(nst)
        return "rk4", np.full(nst, hs), ax, ay

    keyed = {}
    spans_out = []
    for i, lo in enumerate(edges):
        if i in events:
            spans_out.append(("rot", None, None,
                              [(q, p.phase, p.flip_angle) for q, p in events[i]]))
        if i == len(pieces):
            break
        hi, segs = edges[i + 1], pieces[i]
        pulsing = [q for q, (_, s) in enumerate(segs) if s.kind == "pulse"]
        phis, key = np.zeros(n), None
        if pulsing and not transverse[pulsing].any():
            key = (round((hi - lo) / tol),) + tuple(
                (q, segs[q][1].pulse.shape, segs[q][1].pulse.flip_angle,
                 round(segs[q][1].duration / tol), round((lo - segs[q][0]) / tol))
                for q in pulsing)
            phis[pulsing] = [segs[q][1].pulse.phase for q in pulsing]
        entry = keyed[key] if key in keyed else tables(segs, lo, hi, phased=key is None)
        if key is not None:
            keyed[key] = entry
        spans_out.append((entry[0], key, phis, *entry[1:]))
    return spans_out


def _integrate(span, flat, diag, nq):
    """``flat`` (dim, ncol) through one interval at the span's own rates:
    the exact action of a constant H, else RK4 steps (in place)."""
    kind, _, _, h, ax, ay = span
    if kind == "exact":
        return _kernels.expm_action(flat, ax, ay, diag, h, nq)
    _kernels.rk4_evolve(flat, ax, ay, diag, h, 1)
    return flat


def _run_cycle(spans, psi, diag, zsign, shared):
    """Apply one compiled cycle.  Every interval is ``D P D^dag`` with
    ``D = exp(-i/2 sum_q phis_q Z_q)`` and ``P`` the phase-0 propagator
    ``shared`` holds for its key, else ``_integrate`` at the span's rates."""
    nq, dim = zsign.shape
    for span in spans:
        kind, key, phis = span[:3]
        if kind == "rot":
            for (q, phase, angle) in span[3]:
                psi = _apply_single_qubit(psi, _equatorial_rotation(phase, angle), q, nq)
            continue
        d = np.exp(-0.5j * (phis @ zsign))[:, None]
        flat = d.conj() * psi.reshape(dim, -1)
        flat = shared[key] @ flat if key in shared else _integrate(span, flat, diag, nq)
        psi = (d * flat).reshape(psi.shape)
    return psi


def evolve(device, schedules, repetitions=1, psi0=None, samples_per_pulse=256,
           norm_tol=1e-9):
    """Propagate a statevector (or propagator columns) through ``repetitions``
    cycles of the per-qubit schedules.

    Every interval of the cut is applied as a phase-0 propagator conjugated
    by the diagonal ``exp(-i/2 sum_q phis_q Z_q)`` of its drive phases (see
    ``_compile_cycle``).  Where every qubit sits in a delay or a square pulse
    H is constant and the interval is propagated exactly; inside a shaped
    (gaussian or DRAG) envelope it takes fixed RK4 steps, of which
    ``samples_per_pulse`` per longest pulse set the coarsest.  An RK4
    interval applied to at least ``dim`` columns with ``dim <= 32`` is the
    ordered product of its steps' RK4 transfer matrices, built in chunks of
    at most 2**12 amplitudes; otherwise the columns step matrix-free.  A key
    used ``uses`` times over all repetitions, square or shaped, is propagated
    once, on the identity, when that costs no more than propagating each use
    directly (``dim <= ncol * uses``, ``ncol`` the number of columns of
    ``psi0``), and then holds one dim x dim array for the whole call; a
    statevector builds one only for a key it would otherwise propagate at
    least ``dim`` times.
    Raises IntegrationError when a column norm drifts beyond ``norm_tol`` or
    turns NaN, and ValueError for a ``norm_tol`` that is not finite and > 0,
    for ``repetitions`` that is not an integer >= 0, for ``samples_per_pulse``
    that is not an integer >= 16 and for a ``psi0`` whose first axis is not
    2**n, or that has no column or an all-zero one."""
    if not (math.isfinite(norm_tol) and norm_tol > 0):
        raise ValueError(f"norm_tol must be finite and > 0; got {norm_tol}")
    if (not isinstance(repetitions, numbers.Integral) or isinstance(repetitions, bool)
            or repetitions < 0):
        raise ValueError(f"repetitions must be an integer >= 0, got {repetitions!r}")
    device = device.colored()
    schedules = _normalize_schedules(device, schedules)
    dim = 1 << device.n
    psi = np.array(np.eye(1, dim)[0] if psi0 is None else psi0, dtype=complex)
    if psi.shape[:1] != (dim,) or psi.size == 0:
        raise ValueError(f"psi0 needs a first axis of 2**n = {dim} and a column, got {psi.shape}")
    norms_in = np.linalg.norm(psi.reshape(dim, -1), axis=0)
    if np.any(norms_in == 0.0):
        raise ValueError("psi0 has an all-zero column")
    diag = hamiltonian_diagonal(device)
    spans = _compile_cycle(device, schedules, samples_per_pulse, diag)
    ncol = psi.size // dim
    uses = Counter(span[1] for span in spans if span[1] is not None)
    shared = {}
    for span in spans:
        key = span[1]
        if key is not None and key not in shared and dim <= ncol * uses[key] * repetitions:
            shared[key] = _integrate(span, np.eye(dim, dtype=complex), diag, device.n)
    zsign = _zsign(device.n)
    for _ in range(repetitions):
        psi = _run_cycle(spans, psi, diag, zsign, shared)
    norms_out = np.linalg.norm(psi.reshape(dim, -1), axis=0)
    drift = np.abs(norms_out / norms_in - 1.0).max()
    if not drift <= norm_tol:  # written so that a NaN state also fails
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {norm_tol:.1e}")
    return psi


def cycle_propagator(device, schedules, samples_per_pulse=256, norm_tol=1e-9):
    """One-cycle propagator matrix U(tau_c): the columns of the identity
    evolved together by ``evolve``, exactly wherever H is piecewise constant.
    With ``dim`` columns every keyed interval, square or shaped, meets the
    sharing rule, so each distinct one is propagated once per call and its
    phase variants are diagonal conjugations of it."""
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


def survival_probability(encoded, evolved):
    """All-zeros probability after decoding, per column of ``(dim,)`` or
    ``(dim, S)`` arrays: decoding inverts the encoding, so for an encoded
    state psi evolved to U psi the survival is ``|<psi|U|psi>|^2``."""
    return np.abs((np.conj(encoded) * evolved).sum(axis=0)) ** 2


def sample_survival(probs, shots, rng):
    """All-zeros count of ``shots`` categorical draws: the uniforms ``rng.choice``
    would draw, counted below outcome 0's cumulative share.  Negative rounding
    is clipped; NaN, infinite or all-zero probabilities raise ValueError."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.maximum(np.asarray(probs, dtype=float).ravel(), 0.0)
    total = p.sum()
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"probabilities must be finite and not all zero (sum {total})")
    cdf = np.cumsum(p / total)
    return int(np.count_nonzero(rng.random(shots) < cdf[0] / cdf[-1]))


def encode_decode_survival(state, device, schedules, repetitions, shots, seed,
                           samples_per_pulse=256):
    """Encode the product state, protect for ``repetitions`` cycles, decode,
    and estimate the all-zeros survival probability from sampled shots;
    ``repetitions`` must be an integer >= 0 (see ``evolve``)."""
    device = device.colored()
    schedules = _normalize_schedules(device, schedules)
    enc = product_state(state.poles)
    psi = evolve(device, schedules, repetitions=repetitions, psi0=enc,
                 samples_per_pulse=samples_per_pulse)
    p0 = survival_probability(enc, psi)
    rng = shot_rng(seed) if isinstance(seed, numbers.Integral) else shot_rng(*seed)
    zeros = sample_survival((p0, 1.0 - p0), shots, rng)
    duration = schedules[0].duration * repetitions
    pulses = schedules[0].pulse_count * repetitions
    return SurvivalPoint(duration, pulses, shots, zeros, zeros / shots)
