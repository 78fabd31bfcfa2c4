"""Pulse schedules, the named DD sequence catalog, staggering and padding
transforms, and two-coloring of qubit interaction graphs.

Conventions
-----------
Operator strings in the DD literature read right-to-left in time; everywhere in
this package ordered phase lists are consumed in *temporal* order.  Within a
slot, the simultaneous (SIM) construction places the pulse before its delay,
while the staggered crosstalk-robust (CR) construction places the red
sequence's delay first and the blue sequence's pulse first, so pulses of the
two colors never overlap in time.

All durations are in seconds and phases in radians.  Flip angles are pi for
every catalog sequence.

``_common_cut`` is the one plan both engines read of sequences that share a
timeline: cut times, step counts, offsets into segments and phase-0 keys.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels

__all__ = [
    "PulseShape", "PulseSpec", "Segment", "Sequence", "ColoredSchedule",
    "QubitGraph", "CatalogError", "NotBipartiteError", "SEQUENCE_CATALOG",
    "named_phases", "build_named", "sim_variant", "cr_variant", "pad",
    "two_color", "envelope_amplitude", "sim_dd", "cr_dd",
]

DEFAULT_DRAG_COEFFICIENT = 0.1
_SHAPE_KINDS = ("ideal", "square", "gaussian", "gaussian_drag")


class CatalogError(ValueError):
    """Unknown sequence name."""


class NotBipartiteError(ValueError):
    """Graph admits no proper 2-coloring; carries one offending odd cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"graph is not bipartite: odd cycle {self.cycle}")


# ---------------------------------------------------------------------------
# Pulse shapes and envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseShape:
    """Envelope family of a pulse.

    ``sigma`` (seconds) applies to the gaussian families; when None it
    defaults to tau_p/4 at evaluation time.  ``drag_coefficient`` is the
    dimensionless quadrature strength in units of tau_p.
    """

    kind: str
    sigma: float | None = None
    drag_coefficient: float | None = None

    def __post_init__(self):
        if self.kind not in _SHAPE_KINDS:
            raise ValueError(f"unknown pulse shape kind {self.kind!r}")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be > 0 when present")
        if self.kind == "gaussian_drag" and self.drag_coefficient is None:
            object.__setattr__(self, "drag_coefficient", DEFAULT_DRAG_COEFFICIENT)

    @property
    def is_ideal(self):
        return self.kind == "ideal"

    @classmethod
    def ideal(cls):
        return cls("ideal")

    @classmethod
    def square(cls):
        return cls("square")

    @classmethod
    def gaussian(cls, sigma=None):
        return cls("gaussian", sigma=sigma)

    @classmethod
    def gaussian_drag(cls, sigma=None, drag_coefficient=DEFAULT_DRAG_COEFFICIENT):
        return cls("gaussian_drag", sigma=sigma, drag_coefficient=drag_coefficient)

    def to_dict(self):
        d = {"kind": self.kind}
        if self.sigma is not None:
            d["sigma_s"] = self.sigma
        if self.kind == "gaussian_drag":
            d["drag_coefficient"] = self.drag_coefficient
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], sigma=d.get("sigma_s"),
                   drag_coefficient=d.get("drag_coefficient"))


@dataclass(frozen=True)
class PulseSpec:
    """A single pi-pulse: phase, flip angle, duration and envelope; ideal ones turn mid-slot."""

    phase: float
    duration: float
    shape: PulseShape
    flip_angle: float = math.pi

    def __post_init__(self):
        for name in ("phase", "duration", "flip_angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"pulse {name} must be finite, got {getattr(self, name)!r}")
        if not (self.duration >= 0 if self.shape.is_ideal else self.duration > 0):
            raise ValueError(f"pulse duration must be > 0 (>= 0 if ideal), got {self.duration!r}")


@dataclass(frozen=True)
class Segment:
    """One schedule element: a pulse or a free-evolution delay."""

    kind: str
    duration: float
    pulse: PulseSpec | None = None

    def __post_init__(self):
        if self.kind not in ("pulse", "delay"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration!r}")
        if self.kind == "delay" and self.pulse is not None:
            raise ValueError("delay segments carry no pulse payload")
        if self.kind == "pulse":
            if self.pulse is None:
                raise ValueError("pulse segments need a PulseSpec")
            if self.pulse.duration != self.duration:
                raise ValueError("pulse segment duration must match its PulseSpec")

    @classmethod
    def delay(cls, duration):
        return cls("delay", float(duration))

    @classmethod
    def for_pulse(cls, phase, duration, shape, flip_angle=math.pi):
        spec = PulseSpec(float(phase), float(duration), shape, flip_angle)
        return cls("pulse", spec.duration, spec)


class _JSONForm:
    """JSON text of a class's ``to_dict``/``from_dict`` form."""

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Sequence(_JSONForm):
    """Ordered pulse/delay segments for one qubit over one cycle."""

    segments: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.duration > 0:
            raise ValueError("sequence must have total duration > 0")

    @property
    def duration(self):
        # exactly rounded, so equal durations in any order sum equal
        return math.fsum(s.duration for s in self.segments)

    @property
    def pulse_count(self):
        return sum(1 for s in self.segments if s.kind == "pulse")

    @property
    def phases(self):
        return tuple(s.pulse.phase for s in self.segments if s.kind == "pulse")

    @property
    def pulse_duration(self):
        for s in self.segments:
            if s.kind == "pulse":
                return s.duration
        return 0.0

    def pulse_windows(self):
        """(start, end) interval of every pulse, in temporal order."""
        out, t = [], 0.0
        for s in self.segments:
            if s.kind == "pulse":
                out.append((t, t + s.duration))
            t += s.duration
        return out

    def to_dict(self):
        """JSON form: one shape for every pulse, flip angles pi.  Raises
        ValueError for a sequence that form cannot hold."""
        slots, shapes = [], set()
        for s in self.segments:
            if s.kind == "pulse":
                if s.pulse.flip_angle != math.pi:
                    raise ValueError(
                        f"flip angle {s.pulse.flip_angle} cannot be stored; the JSON form "
                        "holds pi pulses only")
                shapes.add(s.pulse.shape)
                slots.append({"kind": "pulse", "duration_s": s.duration,
                              "phase_rad": s.pulse.phase})
            else:
                slots.append({"kind": "delay", "duration_s": s.duration})
        if len(shapes) > 1:
            raise ValueError("mixed pulse shapes cannot be stored; the JSON form holds one shape")
        return {
            "name": self.name,
            "tau_p_s": self.pulse_duration,
            "shape": (shapes.pop() if shapes else PulseShape.square()).to_dict(),
            "slots": slots,
        }

    @classmethod
    def from_dict(cls, d):
        shape = PulseShape.from_dict(d["shape"])
        segs = []
        for slot in d["slots"]:
            if slot["kind"] == "pulse":
                segs.append(Segment.for_pulse(slot["phase_rad"], slot["duration_s"], shape))
            else:
                segs.append(Segment.delay(slot["duration_s"]))
        return cls(tuple(segs), name=d.get("name", ""))


@dataclass(frozen=True)
class ColoredSchedule(_JSONForm):
    """Equal-duration sequence pair assigned to the red/blue color classes."""

    red: Sequence
    blue: Sequence

    def __post_init__(self):
        if self.red.duration != self.blue.duration:
            raise ValueError(
                f"red/blue durations differ: {self.red.duration} vs {self.blue.duration}")
        if self.red.pulse_count != self.blue.pulse_count:
            raise ValueError(
                f"red/blue pulse counts differ: {self.red.pulse_count} vs {self.blue.pulse_count}")

    @property
    def duration(self):
        return self.red.duration

    @property
    def pulse_count(self):
        return self.red.pulse_count

    def to_dict(self):
        return {"red": self.red.to_dict(), "blue": self.blue.to_dict()}

    @classmethod
    def from_dict(cls, d):
        return cls(Sequence.from_dict(d["red"]), Sequence.from_dict(d["blue"]))


def _is_integer(x):
    """An integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _csv_writer(fh, header):
    """Writer of the one CSV dialect of every file crdd writes, its header row
    written: minimal quoting (only a field holding a comma, e.g.
    "CR-(XY4,UR12)", is quoted), "\n" line ends, floats in round-trip form."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        _csv_writer(fh, header).writerows(rows)


def _common_cut(sequences, samples_per_pulse):
    """Cut equal-duration sequences at the union of their segment edges: the
    one plan of step counts, offsets and phase-0 keys ``control`` and ``sim`` read.

    Returns ``(edges, pieces, events)``.  ``edges`` are the cut times from 0
    to the common duration; edges closer than ``tol = 1e-12`` times the
    duration merge into the earliest.  ``pieces[i] = (n, parts)`` steps
    ``[edges[i], edges[i + 1]]`` in ``n = 2 max(1, round(length / 2h))``, with
    ``h`` the longest pulse (else the shortest segment) over
    ``samples_per_pulse``; ``parts`` holds per sequence ``(segment, lo, hi,
    key)``, offsets into that segment that are exactly 0 and its duration at
    its own edges.  ``key`` is None on a delay or an ideal pulse's slot, else
    shape, flip angle, duration and, on the ``tol`` grid, ``lo`` and ``hi``
    (shaped) or ``hi - lo`` (square: the rate is constant); equal keys differ
    only in drive phase, a Z rotation either side (virtual Z, McKay et al.,
    PRA 96, 022330 (2017)).  An ideal pulse turns instantly at its slot's
    midpoint; ``events`` maps an edge index to the turns there, as
    ``(sequence index, PulseSpec)`` in sequence order.  Raises
    ValueError when the durations differ or ``samples_per_pulse`` is not an
    integer >= 16.
    """
    if not _is_integer(samples_per_pulse) or samples_per_pulse < 16:
        raise ValueError(f"samples_per_pulse must be an integer >= 16, got {samples_per_pulse!r}")
    duration = sequences[0].duration
    if any(s.duration != duration for s in sequences):
        raise ValueError(f"sequence durations differ: {sorted({s.duration for s in sequences})}")
    tol = 1e-12 * duration
    spans, instants, cuts = [], [], {0.0, duration}
    for q, seq in enumerate(sequences):
        own, t = [], 0.0
        for s in seq.segments:
            end = t + s.duration
            if s.duration > 0:
                own.append((t, end, s))
                cuts.update((t, end))
            if s.kind == "pulse" and s.pulse.shape.is_ideal:
                mid = t + s.duration / 2
                instants.append((mid, q, s.pulse))
                cuts.add(mid)
            t = end
        spans.append(own)
    widths = [s.duration for own in spans for _, _, s in own if s.kind == "pulse"]
    reference = max(widths) if widths else min(s.duration for own in spans for _, _, s in own)
    h = reference / samples_per_pulse
    edges, merged_into = [], {}
    for c in sorted(cuts):
        if not edges or c - edges[-1] > tol:
            edges.append(c)
        merged_into[c] = len(edges) - 1
    events = {}
    for t, q, pulse in instants:
        events.setdefault(merged_into[t], []).append((q, pulse))
    columns = []
    for own in spans:
        parts = []
        for start, end, seg in own:
            # the pieces from the edge the segment starts at to the one it ends at
            first, stop = merged_into[start], merged_into[end]
            p = None if seg.kind == "delay" or seg.pulse.shape.is_ideal else seg.pulse
            if p is not None:
                square, head = p.shape.kind == "square", (p.shape, p.flip_angle, seg.duration)
            for i in range(first, stop):
                lo = edges[i] - start if i > first else 0.0
                hi = edges[i + 1] - start if i + 1 < stop else seg.duration
                if p is None:
                    key = None
                elif square:
                    key = head + (round((hi - lo) / tol),)
                else:
                    key = head + (round(lo / tol), round(hi / tol))
                parts.append((seg, lo, hi, key))
        columns.append(parts)
    # 2 max(1, round(length / 2h)), rounding half to even as round() does
    steps = 2 * np.maximum(1, np.rint(np.diff(edges) / (2 * h))).astype(int)
    return edges, list(zip(steps.tolist(), zip(*columns))), events


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def _gaussian_waveform(theta, tau_p, sigma, t):
    """Truncated gaussian recalibrated so its area over [0, tau_p] is theta.
    The area takes the scalar ``math.erf``, which keeps scipy off the import
    path."""
    area = sigma * math.sqrt(2 * math.pi) * math.erf(tau_p / (2 * math.sqrt(2) * sigma))
    amp = theta / area
    g = amp * np.exp(-0.5 * ((t - tau_p / 2) / sigma) ** 2)
    dg = g * (-(t - tau_p / 2) / sigma ** 2)
    return g, dg


# Exact-rotation calibrations for the drag envelope, keyed by
# (sigma/tau_p, drag_coefficient).  See _calibrate_drag.
_DRAG_CALIBRATIONS = {}
_CAL_SAMPLES = 1024


def _drag_complex_envelope(theta, tau_p, sigma, beta, scale, detuning, t):
    g, dg = _gaussian_waveform(theta, tau_p, sigma, t)
    ramp = np.exp(1j * detuning * (t - tau_p / 2) / tau_p)
    return scale * (g + 1j * beta * tau_p * dg) * ramp


def _calibrate_drag(sigma_ratio, beta):
    """Solve amplitude scale and detuning so the pulse is an exact pi rotation.

    A raw derivative quadrature tilts the rotation axis out of the equator, so
    no staggered schedule could cancel ZZ errors exactly.  Real devices tune
    this away; here a Newton solve on (scale, detuning) zeroes the identity and
    Z components of the endpoint unitary, leaving exactly exp(-i pi/2 X) for a
    phase-0 pulse.  The even/odd waveform symmetry keeps the Y component zero
    throughout.  The solve is continued in beta from the plain gaussian
    (scale 1, no detuning at beta = 0) in steps of at most 0.1, so every
    Newton start sits next to the root on that branch; started cold at a large
    beta the iteration wanders and may settle on a larger-amplitude root.
    """
    key = (round(sigma_ratio, 12), round(beta, 12))
    if key in _DRAG_CALIBRATIONS:
        return _DRAG_CALIBRATIONS[key]

    def components(b, scale, detuning):
        # endpoint of the pi pulse in tau_p = 1 units
        u = _kernels.cf4_chain(
            lambda t: _drag_complex_envelope(math.pi, 1.0, sigma_ratio, b, scale, detuning, t),
            0.0, 1.0 / _CAL_SAMPLES, _CAL_SAMPLES)[-1]
        a = (u[0, 0] + u[1, 1]).real / 2
        bz = -((u[0, 0] - u[1, 1]) / 2).imag
        return np.array([a, bz])

    p = np.array([1.0, 0.0])
    for b in np.linspace(0.0, beta, max(1, math.ceil(abs(beta) / 0.1)) + 1)[1:]:
        f = components(b, *p)
        for _ in range(60):
            if np.abs(f).max() < 1e-14:
                break
            jac = np.empty((2, 2))
            eps = 1e-7
            for j in range(2):
                q = p.copy()
                q[j] += eps
                jac[:, j] = (components(b, *q) - f) / eps
            step = np.linalg.solve(jac, f)
            lam = 1.0
            for _ in range(10):
                cand = p - lam * step
                fc = components(b, *cand)
                if np.abs(fc).max() < np.abs(f).max():
                    p, f = cand, fc
                    break
                lam /= 2
            else:
                p = p - 0.1 * step
                f = components(b, *p)
    if np.abs(f).max() > 1e-12:
        raise RuntimeError(
            f"drag calibration failed for sigma/tau_p={sigma_ratio}, beta={beta}")
    _DRAG_CALIBRATIONS[key] = (float(p[0]), float(p[1]))
    return _DRAG_CALIBRATIONS[key]


def envelope_amplitude(shape, flip_angle, tau_p, t):
    """In-phase/quadrature angular rates (w_i(t), w_q(t)) of a bounded pulse.

    The components are relative to the commanded phase axis: the drive term is
    w_i(t) sigma_phi + w_q(t) sigma_{phi+pi/2} (each divided by 2 in the
    Hamiltonian).  For square and gaussian shapes the in-phase area equals the
    flip angle and w_q = 0.  The gaussian is truncated to [0, tau_p] and its
    area recalibrated after truncation.  The drag shape carries the derivative
    quadrature plus the exact-rotation calibration (amplitude rescale and a
    centered phase ramp), so its in-phase area deviates from the flip angle by
    the calibration factor.
    """
    if shape.is_ideal:
        raise ValueError("ideal pulses have no continuous envelope")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-12 * tau_p) or np.any(t_arr > tau_p * (1 + 1e-12)):
        raise ValueError("t outside the pulse interval [0, tau_p]")
    scalar = np.isscalar(t) or getattr(t, "ndim", 1) == 0
    if shape.kind == "square":
        wi = np.full_like(t_arr, flip_angle / tau_p)
        wq = np.zeros_like(t_arr)
    else:
        sigma = shape.sigma if shape.sigma is not None else tau_p / 4
        if shape.kind == "gaussian":
            wi, _ = _gaussian_waveform(flip_angle, tau_p, sigma, t_arr)
            wq = np.zeros_like(t_arr)
        else:
            scale, detuning = _calibrate_drag(sigma / tau_p, shape.drag_coefficient)
            w = _drag_complex_envelope(flip_angle, tau_p, sigma,
                                       shape.drag_coefficient, scale, detuning, t_arr)
            wi, wq = w.real, w.imag
    if scalar:
        return float(wi), float(wq)
    return wi, wq


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_PI = math.pi
_XY4 = (0.0, _PI / 2, 0.0, _PI / 2)
_EDD = (0.0, _PI / 2, 0.0, _PI / 2, _PI / 2, 0.0, _PI / 2, 0.0)
_KDD_X = (_PI / 6, 0.0, _PI / 2, 0.0, _PI / 6)
_KDD_Y = (2 * _PI / 3, _PI / 2, _PI, _PI / 2, 2 * _PI / 3)
_KDD = _KDD_X + _KDD_Y + _KDD_X + _KDD_Y
_UR10 = tuple(_PI / 5 * k for k in (0, 4, 2, 4, 0, 0, 4, 2, 4, 0))
_UR12 = tuple(_PI / 3 * k for k in (0, 1, 3, 0, 4, 3, 3, 4, 0, 3, 1, 0))

# Pauli frame tracking for the virtually concatenated 64-pulse sequence: the
# outer eight-pulse cycle is absorbed into the phases of the eight inner
# cycles, so only 64 physical pulses remain and the net frame closes to I.
_PAULI_MUL = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def _conjugate_phase(phase, frame):
    if frame == "I":
        out = phase
    elif frame == "X":
        out = -phase
    elif frame == "Y":
        out = _PI - phase
    else:
        out = _PI + phase
    return out % (2 * _PI)


def _rga64c_phases():
    out = []
    frame = "I"
    for outer_phase in _EDD:
        out.extend(_conjugate_phase(p, frame) for p in _EDD)
        outer_axis = "X" if outer_phase % _PI == 0.0 else "Y"
        frame = _PAULI_MUL[(outer_axis, frame)]
    return tuple(out)


SEQUENCE_CATALOG = {
    "XY4": _XY4,
    "EDD": _EDD,
    "KDD": _KDD,
    "UR10": _UR10,
    "UR12": _UR12,
    "RGA64c": _rga64c_phases(),
}
_CATALOG_LOOKUP = {k.lower(): k for k in SEQUENCE_CATALOG}


def named_phases(name):
    """Ordered phase list (temporal order) of a catalog sequence."""
    return SEQUENCE_CATALOG[canonical_name(name)]


def canonical_name(name):
    """Catalog spelling of a case-insensitive sequence name."""
    key = _CATALOG_LOOKUP.get(str(name).lower())
    if key is None:
        raise CatalogError(
            f"unknown sequence {name!r}; catalog: {', '.join(SEQUENCE_CATALOG)}")
    return key


def build_named(name, tau_p, shape):
    """Catalog sequence as back-to-back pulses (delay slots come from the
    SIM/CR transforms)."""
    segs = tuple(Segment.for_pulse(p, tau_p, shape) for p in named_phases(name))
    return Sequence(segs, name=canonical_name(name))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _slot(parts):
    return [s for s in parts if not (s.kind == "delay" and s.duration == 0.0)]


def sim_variant(phases, tau_p, tau_d, shape, name=""):
    """Simultaneous DD: per slot one pulse followed by a delay tau_d."""
    if len(phases) == 0:
        raise ValueError("empty phase list")
    if tau_d < 0:
        raise ValueError("tau_d must be >= 0")
    segs = []
    for p in phases:
        segs.extend(_slot([Segment.for_pulse(p, tau_p, shape), Segment.delay(tau_d)]))
    return Sequence(tuple(segs), name=name)


def sim_dd(name, k, tau_p, shape):
    """SIM-<name>-k: tau_d = (k-1) tau_p, cycle duration k L tau_p."""
    if not _is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return sim_variant(named_phases(name), tau_p, (k - 1) * tau_p, shape,
                       name=f"SIM-{canonical_name(name)}-{k}")


def _stagger(phases_r, phases_b, tau_p, tau_d, mode, shape, name):
    """Staggered 2-color schedule, one slot per phase pair.  A red slot runs
    (lead, stagger delay tau_p, tau_d, pulse, trail) and a blue slot (lead,
    pulse, tau_d, tau_p, trail), so cross-color pulses never overlap; lead and
    trail are tau_d/2 each in symmetric mode, tau_d and 0 in asymmetric mode.
    Zero delays are dropped."""
    if len(phases_r) != len(phases_b):
        raise ValueError(
            f"phase lists must have equal length: |red|={len(phases_r)}, "
            f"|blue|={len(phases_b)} (repeat the shorter sequence to match)")
    if len(phases_r) == 0:
        raise ValueError("empty phase lists")
    lead, trail = (tau_d / 2, tau_d / 2) if mode == "symmetric" else (tau_d, 0.0)
    segs_r, segs_b = [], []
    for pr, pb in zip(phases_r, phases_b):
        segs_r.extend(_slot([Segment.delay(lead), Segment.delay(tau_p), Segment.delay(tau_d),
                             Segment.for_pulse(pr, tau_p, shape), Segment.delay(trail)]))
        segs_b.extend(_slot([Segment.delay(lead), Segment.for_pulse(pb, tau_p, shape),
                             Segment.delay(tau_d), Segment.delay(tau_p), Segment.delay(trail)]))
    return ColoredSchedule(Sequence(tuple(segs_r), name=f"{name}[red]"),
                           Sequence(tuple(segs_b), name=f"{name}[blue]"))


def _pad_suffix(mode):
    if mode not in ("symmetric", "asymmetric"):
        raise ValueError(f"mode must be 'symmetric' or 'asymmetric', got {mode!r}")
    return "S" if mode == "symmetric" else "A"


def cr_variant(phases_r, phases_b, tau_p, shape, name=""):
    """Staggered 2-color schedule: red slots (delay, pulse), blue slots
    (pulse, delay); cross-color pulses never overlap."""
    return _stagger(phases_r, phases_b, tau_p, 0.0, "symmetric", shape, name or "CR")


def cr_dd(name_r, name_b=None, *, tau_p, shape, k=1, mode="symmetric"):
    """CR-<name> (or CR-(A,B)); shorter catalog sequence repeated to match.

    k > 1 pads with tau_d = (k-1) tau_p in the given mode.
    """
    if not _is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    suffix = _pad_suffix(mode)
    pr = named_phases(name_r)
    pb = named_phases(name_b) if name_b else pr
    lcm = math.lcm(len(pr), len(pb))
    if name_b:
        label = f"CR-({canonical_name(name_r)},{canonical_name(name_b)})"
    else:
        label = f"CR-{canonical_name(name_r)}"
    if k > 1:
        label = f"{label}-pad{suffix}"
    return _stagger(pr * (lcm // len(pr)), pb * (lcm // len(pb)), tau_p, (k - 1) * tau_p,
                    mode, shape, label)


def pad(schedule, tau_d, mode):
    """Insert extra delay tau_d around each pulse, symmetrically or
    asymmetrically, preserving the stagger.  Cycle duration becomes
    2 L (tau_p + tau_d).  Raises ValueError unless ``schedule`` is the
    unpadded stagger of its phases, stagger delay and first pulse shape."""
    suffix = _pad_suffix(mode)
    if tau_d < 0:
        raise ValueError("tau_d must be >= 0")
    red, blue = schedule.red, schedule.blue
    # the stagger delay opens every unpadded red slot
    tau_p = red.segments[0].duration
    shape = next((s.pulse.shape for s in red.segments if s.kind == "pulse"), None)
    unpadded = cr_variant(red.phases, blue.phases, tau_p, shape)
    if (unpadded.red.segments, unpadded.blue.segments) != (red.segments, blue.segments):
        raise ValueError("not an unpadded staggered schedule")
    if tau_d == 0:
        return schedule
    base = red.name.replace("[red]", "")
    return _stagger(red.phases, blue.phases, tau_p, tau_d, mode, shape, f"{base}-pad{suffix}")


# ---------------------------------------------------------------------------
# Qubit graphs and 2-coloring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitGraph(_JSONForm):
    """Interaction graph: integer vertices 0..n-1, undirected edges, optional
    R/B coloring."""

    n: int
    edges: tuple
    coloring: tuple | None = None

    def __post_init__(self):
        for x in (self.n, *(x for edge in self.edges for x in edge)):
            if not _is_integer(x):
                raise ValueError(f"graph size and vertices must be integers, got {x!r}")
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        norm = {}  # insertion-ordered, with O(1) membership
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            edge = (min(u, v), max(u, v))
            if edge in norm:
                raise ValueError(f"edge ({edge[0]},{edge[1]}) appears more than once")
            norm[edge] = None
        object.__setattr__(self, "edges", tuple(norm))
        if self.coloring is not None:
            col = tuple(self.coloring)
            if len(col) != self.n or any(c not in ("R", "B") for c in col):
                raise ValueError("coloring must assign 'R' or 'B' to every vertex")
            for (u, v) in self.edges:
                if col[u] == col[v]:
                    raise ValueError(f"edge ({u},{v}) joins same-color vertices")
            object.__setattr__(self, "coloring", col)

    @classmethod
    def path(cls, n):
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    def neighbors(self, v):
        out = []
        for (a, b) in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def to_dict(self):
        d = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.coloring is not None:
            d["coloring"] = list(self.coloring)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"], tuple(tuple(e) for e in d["edges"]),
                   tuple(d["coloring"]) if "coloring" in d else None)


def two_color(graph):
    """Proper 2-coloring by breadth-first traversal.

    The lowest-index vertex of each connected component is colored R.  An odd
    cycle raises NotBipartiteError identifying one offending cycle.
    """
    color = [None] * graph.n
    parent = [None] * graph.n
    adj = [graph.neighbors(v) for v in range(graph.n)]
    for root in range(graph.n):
        if color[root] is not None:
            continue
        color[root] = "R"
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] is None:
                    color[w] = "B" if color[u] == "R" else "R"
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    raise NotBipartiteError(_odd_cycle(parent, u, w))
    return replace(graph, coloring=tuple(color))


def _odd_cycle(parent, u, w):
    def ancestry(v):
        chain = [v]
        while parent[v] is not None:
            v = parent[v]
            chain.append(v)
        return chain

    au, aw = ancestry(u), ancestry(w)
    seen = set(au)
    lca = next(v for v in aw if v in seen)
    cu = au[:au.index(lca) + 1]
    cw = aw[:aw.index(lca)]
    return cu + cw[::-1]
