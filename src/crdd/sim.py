"""Exact statevector simulation of DD schedules under static ZZ crosstalk and
static 1-local fields, with shot-sampled survival probabilities.

The Hamiltonian H(t) = H_C(t) + H_err is never stored as a matrix: transverse
drive and 1-local X/Y terms act qubit-wise, while the Z and ZZ sector enters
through a precomputed diagonal.  A cycle is cut at every segment edge, with
the step counts, offsets and phase-0 keys of ``sequences._common_cut``.
Where every qubit sits in a delay or a square pulse, H is constant on the
cut interval and its propagator is applied exactly (a phase when H is
diagonal, else a scaled Taylor series).  Inside shaped envelopes, let P be
the qubits that pulse or carry a static X/Y field.  Where no edge joins two
qubits of P, as on every piece of a CR stagger, each other qubit's Z
commutes with H, so the interval is a diagonal phase times one SU(2) turn
per qubit of P, chosen by its neighbours' bits: the CF4 chain ``control``
builds (``_kernels.cf4_chain``) with the constant Z rate those bits set, at
the cut's step counts.  RK4 remains only where two adjacent qubits of P
drive together (SIM cycles, mid-pulse overlaps, a transverse field next to
a pulsing qubit): fixed steps with drive coefficients sampled one-sidedly
per step at offsets into each segment, so envelopes never leak across
segment boundaries; RK4 on enough columns of a small system composes the
transfer matrices of its steps (see ``evolve``).  An ideal pulse idles
through its slot and turns instantly, by an exact rotation, at the slot's
midpoint.

Pulsed intervals, square or shaped, that differ only in the drive phases of
their pulses share one propagator, keyed by their pulsing qubits' keys: a
pulse of phase phi on qubit q is the phase-0 pulse conjugated by
exp(-i phi Z_q / 2), and that rotation commutes with the Z/ZZ diagonal (the
virtual-Z identity, McKay et al., PRA 96, 022330 (2017)).  A pulsing
qubit's static X/Y field is turned by -phi into the same frame and joins
the key.  A factored interval conjugates each qubit's turns by its phase;
every other interval is applied as D P D^dag, D that diagonal rotation
and P its phase-0 propagator: built once on the identity and reused
wherever that is cheaper than propagating every occurrence, else propagated
on the rotated columns.  Delay-only intervals run unkeyed with D = 1.

Statevector dimension is capped at n = 14 qubits (dense representation).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import IntegrationError
from .sequences import (
    NotBipartiteError, QubitGraph, Segment, Sequence, _common_cut, _is_integer,
    envelope_amplitude, two_color,
)

__all__ = [
    "MAX_QUBITS", "CapacityError", "DeviceModel", "StateSpec", "SurvivalPoint",
    "SurvivalRecord", "POLES", "IntegrationError", "prepare_states", "product_state",
    "dense_hamiltonian", "evolve", "cycle_propagator", "idle_schedule", "shot_rng",
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
        """Induced sub-device on the given vertices (relabeled 0..k-1), two-
        coloured when its graph is bipartite, else left uncoloured."""
        idx = {v: i for i, v in enumerate(vertices)}
        edges, zz = [], []
        for (u, v), j in zip(self.graph.edges, self.zz):
            if u in idx and v in idx:
                edges.append((idx[u], idx[v]))
                zz.append(j)
        graph = QubitGraph(len(vertices), tuple(edges))
        try:
            graph = two_color(graph)
        except NotBipartiteError:
            pass  # colored() names the odd cycle to whatever needs a coloring
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
    """The first ``count_type1`` uniform six-pole states (an integer in 0..6)
    plus ``count_type2`` (an integer >= 0) seeded random pole assignments,
    deduplicated against each other."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not _is_integer(count_type1) or not 0 <= count_type1 <= len(POLES):
        raise ValueError(f"count_type1 must be an integer in 0..6, got {count_type1!r}")
    if not _is_integer(count_type2) or count_type2 < 0:
        raise ValueError(f"count_type2 must be an integer >= 0, got {count_type2!r}")
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
    """Apply a 2x2 gate on qubit q to a (dim,) or (dim, k) array; a gate of
    shape (2**q, 2**(n-q-1), 2, 2) holds one per pair of basis states that
    differ in qubit q."""
    dim = 1 << n
    pre = 1 << q
    post = dim // (2 * pre)
    shaped = psi.reshape(pre, 2, post, -1)
    g = gate[..., None]
    out = np.empty_like(shaped)
    out[:, 0] = g[..., 0, 0, :] * shaped[:, 0] + g[..., 0, 1, :] * shaped[:, 1]
    out[:, 1] = g[..., 1, 0, :] * shaped[:, 0] + g[..., 1, 1, :] * shaped[:, 1]
    return out.reshape(psi.shape)


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

# a column norm drifting further than this over a call raises IntegrationError
_NORM_TOL = 1e-9


def _compile_cycle(device, schedules, samples_per_pulse, diag):
    """One cycle as time-ordered spans ``(kind, key, phis, ...)``:

    * ``("rot", None, None, [(q, phase, angle), ...])``: ideal turns, each at
      its slot's midpoint (the slot's parts are keyed None, as delays are);
    * ``("exact", key, phis, t, ax, ay)``: every qubit sits in a delay or a
      square pulse, so H is constant with rates ``ax, ay`` (n,) for ``t``;
    * ``("factored", None, None, phase, [(q, classes, turns), ...])``: a
      shaped envelope where no edge joins two qubits of P, the qubits that
      pulse or carry a static X/Y field.  Every other qubit's Z commutes
      with H, so the propagator is the diagonal ``phase`` (dim,) of the Z/ZZ
      terms outside P times one SU(2) turn per q in P, set by its
      neighbours' bits: ``turns[c]`` is the CF4 endpoint of q's drive plus
      the c-th distinct value of its Z rate ``b_q^z + sum_{p~q} J_qp z_p``,
      and ``classes`` (2**q, 2**(n-q-1)) holds ``c`` for every pair of basis
      states q turns, in ``_apply_single_qubit``'s layout;
    * ``("rk4", key, phis, h, ax, ay)``: a shaped envelope where two adjacent
      qubits of P drive together, in RK4 steps ``h`` with rates (nsteps, 3,
      n) at each step's start, midpoint and end.

    An interval in which some qubit pulses, square or shaped, is keyed by
    ``(q, key, fx + i fy)`` of each pulsing qubit, ``key`` its part's
    phase-0 key in ``_common_cut`` and ``(fx, fy)`` its static X/Y field
    turned by its drive phase phi into the pulse frame,
    ``(bx cos phi + by sin phi, by cos phi - bx sin phi)``.  Its rates are
    the phase-0 pulses' plus the turned fields, sampled once per key, and
    ``phis`` (n,) holds each pulsing qubit's drive phase (0 elsewhere): its
    propagator is the key's conjugated by ``exp(-i/2 sum_q phis_q Z_q)``,
    exact because that rotation is constant over the interval and commutes
    with the Z/ZZ diagonal.  A factored span carries its turns already so
    conjugated, as ``control.propagate`` turns a pulse to its phase.  A
    delay-only interval is keyed None with ``phis`` 0.
    """
    n = device.n
    _check_capacity(n)
    edges, pieces, events = _common_cut(schedules, samples_per_pulse)
    diag_bound = float(np.abs(diag).max())
    b = device.b[:, 0] + 1j * device.b[:, 1]
    zsign = _zsign(n)
    neighbours = [[] for _ in range(n)]
    for (u, v), j in zip(device.graph.edges, device.zz):
        neighbours[u].append((v, j))
        neighbours[v].append((u, j))

    def rate(part, offsets):
        """Complex rate ``wi + i wq`` of a part's pulse at phase 0 at
        ``offsets`` from the start of the interval (0 on a delay)."""
        s, lo, _, key = part
        if key is None:
            return np.zeros(offsets.shape, dtype=complex)
        p = s.pulse
        local = np.clip(lo + offsets, 0.0, s.duration)
        wi, wq = envelope_amplitude(p.shape, p.flip_angle, s.duration, local.ravel())
        return (wi + 1j * wq).reshape(offsets.shape)

    def drive(parts, offsets, field):
        """Rates ``ax, ay`` of shape ``offsets.shape + (n,)`` at ``offsets``
        from the start of the interval: every pulse at phase 0 plus the
        static X/Y field ``field`` (n,), as ``fx + i fy``."""
        w = np.stack([0.5 * rate(part, offsets) for part in parts], axis=-1) + field
        return w.real, w.imag

    def factored(parts, t, nst, field, pset):
        """The factored span's ``phase`` and ``(q, classes, turns)`` at phase
        0; a qubit at a constant rate (a delay or a square pulse) turns in
        one CF4 step, which is exact."""
        rest = diag.copy()
        out = []
        for q in pset:
            hz = sum((j * zsign[p] for p, j in neighbours[q]), np.full(1 << n, device.b[q, 2]))
            values, classes = np.unique(hz, return_inverse=True)
            rest -= zsign[q] * hz
            part = parts[q]
            steps = 1 if part[3] is None or part[0].pulse.shape.kind == "square" else nst
            turns = _kernels.cf4_chain(lambda s: rate(part, s) + 2.0 * field[q], 0.0,
                                       t / steps, steps, 2.0 * values)[:, -1]
            out.append((q, classes.reshape(1 << q, 2, -1)[:, 0], turns))
        return "factored", np.exp(-1j * t * rest), out

    def tables(parts, t, nst, field):
        """``("exact", t, ax, ay)`` when every qubit sits in a delay or a
        square pulse, ``factored`` when no edge joins two qubits of P, else
        ``("rk4", h, ax, ay)`` in at least ``nst`` RK4 steps."""
        if all(key is None or s.pulse.shape.kind == "square" for s, _, _, key in parts):
            return ("exact", t, *drive(parts, np.array(0.0), field))
        pset = [q for q in range(n) if parts[q][3] is not None or b[q] != 0.0]
        if not any(u in pset and v in pset for u, v in device.graph.edges):
            return factored(parts, t, nst, field, pset)

        def sample(nst):
            hs = t / nst
            offs = np.arange(nst) * hs
            return hs, *drive(parts, np.stack([offs, offs + hs / 2, offs + hs], axis=1),
                              field)

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
        nst, parts = pieces[i]
        pulsing = [q for q, part in enumerate(parts) if part[3] is not None]
        phis = np.zeros(n)
        phis[pulsing] = [parts[q][0].pulse.phase for q in pulsing]
        field = b * np.exp(-1j * phis)  # each pulsing qubit's field in its pulse frame
        key = tuple((q, parts[q][3], field[q]) for q in pulsing) or None
        entry = (keyed[key] if key in keyed
                 else tables(parts, edges[i + 1] - lo, nst, field))
        if key is not None:
            keyed[key] = entry
        if entry[0] == "factored":
            # exp(-i phi Z/2) U exp(i phi Z/2): each turn at its pulse's phase
            e = np.exp(1j * phis)
            spans_out.append(("factored", None, None, entry[1], [
                (q, classes, turns * np.array([[1.0, e[q].conjugate()], [e[q], 1.0]]))
                for q, classes, turns in entry[2]]))
        else:
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
    """Apply one compiled cycle.  A factored span is its diagonal phase and
    then each qubit's turn, gathered by the class of every basis state.
    Every other interval is ``D P D^dag`` with ``D = exp(-i/2 sum_q phis_q
    Z_q)`` and ``P`` the phase-0 propagator ``shared`` holds for its key,
    else ``_integrate`` at the span's rates."""
    nq, dim = zsign.shape
    for span in spans:
        kind, key, phis = span[:3]
        if kind == "rot":
            for (q, phase, angle) in span[3]:
                psi = _apply_single_qubit(psi, _kernels.turns(phase, angle)[0], q, nq)
            continue
        if kind == "factored":
            flat = span[3][:, None] * psi.reshape(dim, -1)
            for q, classes, turns in span[4]:
                flat = _apply_single_qubit(flat, turns[classes], q, nq)
            psi = flat.reshape(psi.shape)
            continue
        d = np.exp(-0.5j * (phis @ zsign))[:, None]
        flat = d.conj() * psi.reshape(dim, -1)
        flat = shared[key] @ flat if key in shared else _integrate(span, flat, diag, nq)
        psi = (d * flat).reshape(psi.shape)
    return psi


def evolve(device, schedules, repetitions=1, psi0=None, samples_per_pulse=256):
    """Propagate a statevector (or propagator columns) through ``repetitions``
    cycles of the per-qubit schedules.

    Every interval of the cut is applied as a phase-0 propagator conjugated
    by the diagonal ``exp(-i/2 sum_q phis_q Z_q)`` of its drive phases (see
    ``_compile_cycle``).  Where every qubit sits in a delay or a square pulse
    H is constant and the interval is propagated exactly.  Inside a shaped
    (gaussian or DRAG) envelope where no two adjacent qubits pulse or carry
    a static X/Y field, as on every CR piece, the interval is factored: a
    diagonal phase, then one CF4 SU(2) turn per such qubit gathered by each
    basis state's neighbour class, O(dim) per qubit and column, the same for
    a statevector as for a propagator.  Only where two adjacent qubits drive
    together does it take fixed RK4 steps.  ``samples_per_pulse`` per
    longest pulse set the CF4 step and the coarsest RK4 step.  An RK4
    interval applied to at least ``dim`` columns with ``dim <= 32`` is the
    ordered product of its steps' RK4 transfer matrices, built in chunks of
    at most 2**12 amplitudes; otherwise the columns step matrix-free.  A key
    of an exact or RK4 interval used ``uses`` times over all repetitions is
    propagated once, on the identity, when that costs no more than
    propagating each use directly (``dim <= ncol * uses``, ``ncol`` the
    number of columns of ``psi0``), and then holds one dim x dim array for
    the whole call; a statevector builds one only for a key it would
    otherwise propagate at least ``dim`` times.
    Raises IntegrationError when a column norm drifts beyond 1e-9
    (``_NORM_TOL``) or turns NaN, and ValueError for ``repetitions`` that is
    not an integer >= 0, for ``samples_per_pulse`` that is not an integer
    >= 16 and for a ``psi0`` whose first axis is not 2**n, or that has no
    column or an all-zero one."""
    if not _is_integer(repetitions) or repetitions < 0:
        raise ValueError(f"repetitions must be an integer >= 0, got {repetitions!r}")
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
    if not drift <= _NORM_TOL:  # written so that a NaN state also fails
        raise IntegrationError(f"norm drift {drift:.3e} exceeds {_NORM_TOL:.1e}")
    return psi


def cycle_propagator(device, schedules, samples_per_pulse=256):
    """One-cycle propagator matrix U(tau_c): the columns of the identity
    evolved together by ``evolve``, exactly wherever H is piecewise constant.
    Shaped CR pieces are factored into per-qubit CF4 turns; RK4 remains only
    where adjacent qubits drive together.  With ``dim`` columns every keyed
    exact or RK4 interval meets the sharing rule, so each distinct one is
    propagated once per call and its phase variants are diagonal
    conjugations of it."""
    dim = 1 << device.n
    eye = np.eye(dim, dtype=complex)
    return evolve(device, schedules, repetitions=1, psi0=eye,
                  samples_per_pulse=samples_per_pulse)


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
