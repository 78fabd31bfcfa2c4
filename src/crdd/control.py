"""Control-unitary propagation, control matrices, error-matrix integrals,
first-order suppression verification, and symmetry classification.

The control is piecewise constant on the cut a sequence shares with its
partners (``sequences._common_cut``), whose step counts, offsets and phase-0
keys this module reads as they are, so every node of a trace is U = V_loc S,
with S the unitary at the start of the node's piece; the piece starts compose
over hundreds of factors.  V_loc is I on a delay and a closed-form turn about
the drive axis on a square pulse.  On a shaped pulse it is the fourth-order
commutator-free (CF4) chain, two closed-form SU(2) factors per step sampled at
the Gauss-Legendre nodes.  A pulse's V_loc is built at phase 0 once per call
and key, and conjugated by exp(-i phase Z/2) (virtual Z, McKay et al., PRA 96,
022330 (2017)).  An ideal pulse is I through its slot around an exact rotation
at the slot's midpoint.  Every node is checked for unitarity.

The control matrix follows R[mu, alpha](t) = Tr[U(t)^dag s_mu U(t) s_alpha]/2,
an SO(3) rotation with R(0) = I.  Every node starts from the identity, so it
has the quaternion form U = w I - i(x X + y Y + z Z), and R is read off in
closed form (Shoemake, SIGGRAPH 1985), the transpose of the textbook
rotation matrix:

    [[ww+xx-yy-zz, 2(xy-wz),    2(xz+wy)   ],
     [2(xy+wz),    ww-xx+yy-zz, 2(yz-wx)   ],
     [2(xz-wy),    2(yz+wx),    ww-xx-yy+zz]]

This homogeneous form equals the trace formula for any U of that form, unit
or not.  R R^T = |q|^4 I, so a check on R would only repeat the unitarity
check at twice its defect; that check is the guard: U^dag U = |q|^2 I, so its
defect is | |U00|^2 + |U10|^2 - 1 |.  Error matrices are time integrals:
``chi1``/``chi2`` take composite Simpson per smooth piece of a trace, while
``verify_first_order`` builds no trace.  With R(t) = R_loc(t) S on a piece,
chi1 gains (int R_loc dt) S and chi2 S_r^T (int R_loc,r[Z]^T R_loc,b[Z] dt)
S_b, then S <- R_loc(end) S; R_loc is the adjoint of the same V_loc.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import IntegrationError
from .sequences import (
    ColoredSchedule, Sequence, _common_cut, _write_csv, envelope_amplitude,
)

__all__ = [
    "TimeGrid", "ControlTrace", "ErrorMatrix", "SuppressionReport",
    "ComponentSymmetry", "SymmetryReport", "IntegrationError",
    "GridMismatchError", "propagate", "control_trace", "bang_bang_trace",
    "chi1", "chi2", "paired_traces", "verify_first_order", "classify_symmetry",
    "classify_all",
]

AXES = "XYZ"

# a node whose unitarity defect exceeds this (or is NaN) raises IntegrationError
_UNITARITY_TOL = 1e-10


class GridMismatchError(ValueError):
    """Two traces do not share an identical time grid."""


def _axis_index(a):
    if isinstance(a, str) and a.upper() in ("X", "Y", "Z"):
        return AXES.index(a.upper())
    if not isinstance(a, str) and a in (0, 1, 2):
        return int(a)
    raise ValueError(f"axis must be one of X, Y, Z, got {a!r}")


# ---------------------------------------------------------------------------
# Node layouts, local turns and propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Node times of a propagated trace.

    Nodes are duplicated at piece boundaries (and at instantaneous pulses), so
    one-sided values of discontinuous integrands are representable.  ``pieces``
    holds inclusive node-index spans of the smooth pieces used for quadrature.
    """

    times: np.ndarray
    pieces: tuple
    duration: float

    def quadrature_compatible(self, other):
        """Same smooth-piece structure and node times on every piece.

        Node counts may differ by duplicates from instantaneous pulses, which
        sit outside the quadrature spans.
        """
        if not isinstance(other, TimeGrid) or self.pieces != other.pieces:
            return False
        for (i0, i1) in self.pieces:
            if not np.array_equal(self.times[i0:i1 + 1], other.times[i0:i1 + 1]):
                return False
        return True


def _plan_sequence(sequence, samples_per_pulse, partners=()):
    """Node layout of ``sequence`` on the cut it shares with ``partners``: the
    TimeGrid, each piece as ``{first node: (last node, part)}`` with ``part =
    (segment, lo, hi, key)`` the sequence's part of the piece (see
    ``_common_cut``), and the instantaneous rotations as ``{node: (phase,
    flip_angle)}`` (other nodes off the pieces copy the one before)."""
    edges, cut, instants = _common_cut((sequence, *partners), samples_per_pulse)
    dts, pieces, spans, events, node = [], [], {}, {}, 0
    for i in range(len(edges)):
        here = instants.get(i, ())
        # every sequence of the cut gets as many nodes here as the one with the
        # most instantaneous pulses, so their pieces keep the same node spans;
        # two pieces are always parted by at least one, a duplicate
        width = max(Counter(q for q, _ in here).values(), default=0) or int(0 < i < len(cut))
        events.update(enumerate(((p.phase, p.flip_angle) for q, p in here if q == 0), node + 1))
        dts.append(np.zeros(width))
        node += width
        if i == len(cut):
            break
        n, parts = cut[i]
        _, lo, hi, _ = parts[0]
        dts.append(np.full(n, (hi - lo) / n))
        pieces.append((node, node + n))
        spans[node] = (node + n, parts[0])
        node += n
    times = np.concatenate(([0.0], np.cumsum(np.concatenate(dts))))
    return TimeGrid(times, tuple(pieces), sequence.duration), spans, events


def _phase0_turns(seg, lo, hi, n):
    """Unitaries from I at the ``n + 1`` even offsets ``lo``..``hi`` into pulse
    ``seg`` at phase 0: a closed-form turn if square, else the CF4 chain."""
    if seg.pulse.shape.kind == "square":
        rate = seg.pulse.flip_angle / seg.duration
        return _kernels.turns(0.0, rate * np.linspace(0.0, hi - lo, n + 1))
    p = seg.pulse

    def rate(t):
        wi, wq = envelope_amplitude(p.shape, p.flip_angle, seg.duration, t)
        return wi + 1j * wq

    return _kernels.cf4_chain(rate, lo, (hi - lo) / n, n)


def _local(build, part, n, cache):
    """``build(segment, lo, hi, n)`` of a pulse's ``part = (segment, lo, hi,
    key)`` of the cut, once per ``cache``, key and ``n``: one shaped key
    samples the envelope 2n times."""
    seg, lo, hi, key = part
    if (key, n) not in cache:
        cache[key, n] = build(seg, lo, hi, n)
    return cache[key, n]


def _unitary(U):
    """``U``, once no node's defect | |U00|^2 + |U10|^2 - 1 | exceeds ``_UNITARITY_TOL``."""
    col = U[:, :, 0]
    defect = np.abs((col.real ** 2 + col.imag ** 2).sum(axis=1) - 1.0).max()
    if not defect <= _UNITARITY_TOL:  # written so that a NaN node also fails
        raise IntegrationError(f"unitarity defect {defect:.3e} exceeds {_UNITARITY_TOL:.1e}")
    return U


def propagate(sequence, samples_per_pulse=256, partners=()):
    """Control unitaries U_C(t_i) at every grid node: (TimeGrid, U), U of shape
    (n_nodes, 2, 2).  Raises IntegrationError if a node's unitarity defect
    exceeds 1e-10 (``_UNITARITY_TOL``) or is NaN.  ``partners`` are the
    other sequences on the same grid: the cut is taken at every segment edge
    of the sequence and its partners, and the step from all of them (h =
    reference / samples_per_pulse).  Traces meant to share a grid must pass
    each other as partners.  Partners of another duration raise ValueError.
    """
    grid, spans, events = _plan_sequence(sequence, samples_per_pulse, partners)
    U = np.empty((len(grid.times), 2, 2), dtype=np.complex128)
    U[0] = np.eye(2)
    cache, k = {}, 0
    while k + 1 < len(U):
        if k in spans:  # a piece: V_loc(t) S from its start S
            i1, part = spans[k]
            if part[3] is None:  # a delay
                U[k + 1:i1 + 1] = U[k]
            else:
                V = _local(_phase0_turns, part, i1 - k, cache)[1:]
                phase = part[0].pulse.phase
                e = complex(math.cos(phase), math.sin(phase))
                # exp(-i phase Z/2) V exp(i phase Z/2): the turn at the pulse's phase
                V = V * np.array([[1.0, e.conjugate()], [e, 1.0]])
                np.matmul(V.reshape(-1, 2), U[k], out=U[k + 1:i1 + 1].reshape(-1, 2))
            k = i1
        else:  # an instantaneous rotation, or a copy
            k += 1
            U[k] = _kernels.turns(*events[k])[0] @ U[k - 1] if k in events else U[k - 1]
    return grid, _unitary(U)


def _adjoint_from_unitaries(U):
    """R[mu, alpha] = Tr[U^dag s_mu U s_alpha]/2 for U = w I - i(x X + y Y + z Z)."""
    w, z = U[:, 0, 0].real, -U[:, 0, 0].imag
    y, x = U[:, 1, 0].real, -U[:, 1, 0].imag
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    return np.stack((ww + xx - yy - zz, 2 * (xy - wz), 2 * (xz + wy),
                     2 * (xy + wz), ww - xx + yy - zz, 2 * (yz - wx),
                     2 * (xz - wy), 2 * (yz + wx), ww - xx - yy + zz),
                    axis=-1).reshape(-1, 3, 3)


@dataclass(frozen=True, eq=False)
class ControlTrace:
    """Time-gridded 3x3 control matrix R[mu, alpha](t_i) for one sequence."""

    grid: TimeGrid
    R: np.ndarray

    @property
    def duration(self):
        return self.grid.duration

    def component(self, mu, alpha):
        return self.R[:, _axis_index(mu), _axis_index(alpha)]

    def uniform_view(self):
        """Deduplicated (t, R) on a uniform grid; requires a continuous trace."""
        t, R = self.grid.times, self.R
        dup = np.flatnonzero(np.diff(t) == 0.0)
        if dup.size and np.abs(R[dup + 1] - R[dup]).max() > 1e-9:
            raise ValueError("trace is discontinuous; no uniform view exists")
        keep = np.ones(len(t), dtype=bool)
        keep[dup + 1] = False
        tu, Ru = t[keep], R[keep]
        hs = np.diff(tu)
        if hs.size and (hs.max() - hs.min()) > 1e-9 * hs.max():
            raise ValueError("grid spacing is not uniform")
        return tu, Ru

    def to_csv(self, path):
        _write_csv(path, ["t_s"] + [f"R_{m}{a}" for m in AXES for a in AXES],
                   np.column_stack((self.grid.times, self.R.reshape(-1, 9))).tolist())


def control_trace(sequence, samples_per_pulse=256, partners=()):
    grid, U = propagate(sequence, samples_per_pulse, partners)
    return ControlTrace(grid, _adjoint_from_unitaries(U))


def _axis_rotation_adjoint(phase, angle):
    # adjoint of exp(-i angle/2 (cos(phase) X + sin(phase) Y)): rotation of the
    # Pauli vector about the equatorial axis by angle
    n = np.array([math.cos(phase), math.sin(phase), 0.0])
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def bang_bang_trace(sequence, samples_per_pulse=256, partners=()):
    """Piecewise-constant toggling-frame trace for ideal-pulse sequences.

    Composes exact SO(3) Pauli-axis rotations directly (independent of the
    SU(2) propagator), so it serves as an analytic oracle for the numeric
    path in the limit of vanishing pulse width.
    """
    if any(s.kind == "pulse" and not s.pulse.shape.is_ideal for s in sequence.segments):
        raise ValueError("bang_bang_trace requires all pulses ideal")
    grid, _, events = _plan_sequence(sequence, samples_per_pulse, partners)
    R = np.empty((len(grid.times), 3, 3))
    R[0] = np.eye(3)
    for i in range(1, len(R)):
        R[i] = _axis_rotation_adjoint(*events[i]) @ R[i - 1] if i in events else R[i - 1]
    return ControlTrace(grid, R)


# ---------------------------------------------------------------------------
# Error-matrix integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ErrorMatrix:
    """3x3 first-order error integral; entries in seconds."""

    kind: str
    values: np.ndarray
    duration: float

    def __post_init__(self):
        if self.kind not in ("one_local", "two_local"):
            raise ValueError("kind must be one_local or two_local")
        if np.abs(self.values).max() > self.duration * (1 + 1e-9) + 1e-30:
            raise ValueError("error-matrix entry exceeds the cycle duration bound")

    def entry(self, a, b):
        return float(self.values[_axis_index(a), _axis_index(b)])

    def max_abs(self):
        return float(np.abs(self.values).max())


def _simpson_pieces(values, times, pieces):
    """Composite Simpson of a (nodes, ...) array over each smooth piece."""
    total = np.zeros(values.shape[1:])
    for (i0, i1) in pieces:
        n = i1 - i0
        hs = (times[i1] - times[i0]) / n
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total = total + (hs / 3.0) * np.tensordot(w, values[i0:i1 + 1], axes=(0, 0))
    return total


def chi1(trace):
    """One-local error matrix: entrywise integral of R over the cycle."""
    vals = _simpson_pieces(trace.R, trace.grid.times, trace.grid.pieces)
    return ErrorMatrix("one_local", vals, trace.duration)


def chi2(trace_r, trace_b):
    """Two-local ZZ error matrix: integral of the Z-row products of two traces
    sharing an identical grid."""
    if not trace_r.grid.quadrature_compatible(trace_b.grid):
        raise GridMismatchError("traces must share an identical time grid")
    # node counts may differ only past the last piece (see quadrature_compatible)
    end = trace_r.grid.pieces[-1][1] + 1
    zr, zb = trace_r.R[:end, 2, :], trace_b.R[:end, 2, :]
    vals = _simpson_pieces(zr[:, :, None] * zb[:, None, :], trace_r.grid.times,
                           trace_r.grid.pieces)
    return ErrorMatrix("two_local", vals, trace_r.duration)


def paired_traces(schedule, samples_per_pulse=256, ideal=False):
    """Red/blue traces of a schedule on a shared grid: each color is cut and
    stepped with the other as its partner."""
    maker = bang_bang_trace if ideal else control_trace
    tr = maker(schedule.red, samples_per_pulse, (schedule.blue,))
    tb = maker(schedule.blue, samples_per_pulse, (schedule.red,))
    return tr, tb


@dataclass(frozen=True, eq=False)
class SuppressionReport:
    """Per-entry first-order suppression verdicts for a schedule.

    ``values[k]`` is the 3x3 error matrix named ``kinds[k]``, in seconds;
    ``rows`` lists its entries with their verdicts, built on access.
    ``passed`` is the crosstalk verdict: every two-local ZZ entry below
    tol * tau_c.  One-local entries carry their own per-entry verdicts in
    ``rows`` (bounded pulses generically leave physical chi1 residuals, so an
    all-entries verdict would reject every finite-width schedule).
    """

    duration: float
    tol: float
    kinds: tuple
    values: np.ndarray

    @property
    def rows(self):
        """(kind, alpha, beta, value, passed) for every entry, kind by kind."""
        bound = self.tol * self.duration
        return tuple((kind, AXES[m], AXES[a], v, abs(v) <= bound)
                     for kind, mat in zip(self.kinds, self.values.tolist())
                     for m, row in enumerate(mat) for a, v in enumerate(row))

    @property
    def passed(self):
        return all(r[4] for r in self.rows if r[0] == "two_local")

    @property
    def max_abs(self):
        return max(abs(r[3]) for r in self.rows)

    @property
    def max_relative(self):
        return self.max_abs / self.duration

    @property
    def two_local_max_relative(self):
        return max(abs(r[3]) for r in self.rows if r[0] == "two_local") / self.duration

    def failures(self):
        return [r for r in self.rows if not r[4]]

    def two_local_failures(self):
        return [r for r in self.rows if r[0] == "two_local" and not r[4]]

    def to_csv(self, path):
        _write_csv(path, ("kind", "alpha", "beta", "value_s", "pass"),
                   ((kind, a, b, v, str(bool(ok)).lower()) for kind, a, b, v, ok in self.rows))


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0):  # a NaN tol would fail every check
        raise ValueError(f"tol must be finite and > 0; got {tol}")


def _local_chi(seg, lo, hi, n):
    """(int R_loc dt, R_loc(end), Z rows of R_loc) of pulse ``seg`` from ``lo``
    to ``hi`` at phase 0, the adjoint of ``_phase0_turns``."""
    R = _adjoint_from_unitaries(_unitary(_phase0_turns(seg, lo, hi, n)))
    return _simpson_pieces(R, np.linspace(0.0, hi - lo, n + 1), ((0, n),)), R[-1], R[:, 2]


def _segment_chi(seqs, samples_per_pulse):
    """chi1 of each of ``seqs`` and chi2 of the first with the last, by segments."""
    edges, cut, instants = _common_cut(seqs, samples_per_pulse)
    frames, one, two, cache = [np.eye(3)] * len(seqs), [0.0] * len(seqs), 0.0, {}
    for i, (n, parts) in enumerate(cut):
        for q, p in instants.get(i, ()):
            frames[q] = _axis_rotation_adjoint(p.phase, p.flip_angle) @ frames[q]
        dur = edges[i + 1] - edges[i]
        local = []  # (int R_loc dt, R_loc(end), Z rows of R_loc or None if constant)
        for part in parts:
            if part[3] is None:  # a delay
                local.append((dur * np.eye(3), np.eye(3), None))
                continue
            L, E, Z = _local(_local_chi, part, n, cache)
            phase = part[0].pulse.phase
            c, s = math.cos(phase), math.sin(phase)
            Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            local.append((Q @ L @ Q.T, Q @ E @ Q.T, Z @ Q.T))
        (Lr, _, Zr), (Lb, _, Zb) = local[0], local[-1]
        if Zr is None or Zb is None:  # int z_r^T z_b with one factor constant
            M = np.outer(Lr[2], Lb[2]) / dur
        else:
            t = np.linspace(0.0, dur, n + 1)
            M = _simpson_pieces(Zr[:, :, None] * Zb[:, None, :], t, ((0, n),))
        two = two + frames[0].T @ M @ frames[-1]
        for q, (L, E, _) in enumerate(local):
            one[q] = one[q] + L @ frames[q]
            frames[q] = E @ frames[q]
    return one, two


def verify_first_order(obj, samples_per_pulse=256, tol=1e-8):
    """Evaluate chi1 per color and chi2 for the pair; pass iff every entry is
    below tol * tau_c.  A bare Sequence is treated as applied simultaneously
    to both edge endpoints.  Summed by segments (``_segment_chi``)."""
    _check_tol(tol)
    if isinstance(obj, ColoredSchedule):
        names, seqs = ("one_local_red", "one_local_blue"), (obj.red, obj.blue)
    elif isinstance(obj, Sequence):
        names, seqs = ("one_local",), (obj,)
    else:
        raise TypeError("expected a Sequence or ColoredSchedule")
    one, two = _segment_chi(seqs, samples_per_pulse)
    kinds, values = names + ("two_local",), np.stack(one + [two])
    for kind, v in zip(("one_local",) * len(one) + ("two_local",), values):
        ErrorMatrix(kind, v, obj.duration)  # checks the cycle-duration bound
    return SuppressionReport(obj.duration, tol, kinds, values)


# ---------------------------------------------------------------------------
# Symmetry classification
# ---------------------------------------------------------------------------

RELATIONS = ("displacement_symmetric", "displacement_antisymmetric",
             "mirror_symmetric", "mirror_antisymmetric")


@dataclass(frozen=True)
class ComponentSymmetry:
    mu: str
    alpha: str
    residuals: dict
    tol: float

    def flag(self, relation):
        return self.residuals[relation] <= self.tol


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Residuals ``[mu, alpha, k]`` of relation ``RELATIONS[k]``, in one array."""

    residuals: np.ndarray
    tol: float

    @property
    def components(self):
        return {(AXES[m], AXES[a]): ComponentSymmetry(
            AXES[m], AXES[a], dict(zip(RELATIONS, self.residuals[m, a].tolist())), self.tol)
            for m in range(3) for a in range(3)}

    def to_csv(self, path):
        _write_csv(path, ("mu", "alpha", "relation", "residual", "flag"),
                   ((m, a, rel, r, str(bool(comp.flag(rel))).lower())
                    for (m, a), comp in self.components.items()
                    for rel, r in comp.residuals.items()))


def classify_symmetry(trace, mu, alpha, tol=1e-6):
    """Relative L2 residuals of R(t + tau_c/2) = +/- R(t) and
    R(tau_c - t) = +/- R(t) for one component."""
    key = (AXES[_axis_index(mu)], AXES[_axis_index(alpha)])
    return classify_all(trace, tol).components[key]


def classify_all(trace, tol=1e-6):
    """``classify_symmetry`` of all nine components, from one uniform view."""
    _check_tol(tol)
    t, R = trace.uniform_view()
    n = len(t) - 1
    if n % 2:
        raise ValueError("grid node count across the half-cycle must be even")
    half = n // 2
    y = R.reshape(-1, 9).T  # one row per component
    y0, y1, rev = y[:, : half + 1], y[:, half:], y[:, ::-1]
    buf = np.empty(y.shape)  # C order, so each mean is a pairwise sum along a row
    rms = np.empty((9, 1 + len(RELATIONS)))
    for k, (op, a, b) in enumerate(((np.multiply, y, 1.0), (np.subtract, y1, y0),
                                    (np.add, y1, y0), (np.subtract, rev, y), (np.add, rev, y))):
        d = op(a, b, out=buf[:, : a.shape[1]])
        rms[:, k] = np.sqrt(np.mean(np.square(d, out=d), axis=1))
    return SymmetryReport((rms[:, 1:] / np.maximum(rms[:, :1], 1e-300)).reshape(3, 3, -1), tol)
