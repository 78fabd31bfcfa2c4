"""Hot numeric kernels, one numpy implementation each.

``cf4_chain``
    The one shaped-pulse builder, for control, the DRAG calibration and the
    factored shaped pieces of ``sim``: the unitaries after every step of the
    fourth-order commutator-free (CF4) integrator (Blanes & Moan, Appl.
    Numer. Math. 56, 2006) for a single-qubit drive, two closed-form SU(2)
    factors per step (``cf4_steps``) built from the complex drive rate at the
    two Gauss nodes, plus a constant Z rate (``sim``'s neighbour-set ZZ and
    Z field; one chain per rate on the same samples).

``su2_chain``
    Sequential composition of per-step SU(2) factors
    ``U <- exp(-i(dx X + dy Y + z Z)/2) exp(-i(cx X + cy Y + z Z)/2) U``
    recording the unitary after every step (it runs inside shaped pulses
    only).  Steps with all-zero coefficients copy the node exactly; steps
    with only a (cx, cy) pair realize instantaneous rotations.  The prefix
    products are formed as quaternions by a work-efficient log-depth scan
    (Blelloch 1990) and divided by their norm, so a long chain stays unitary
    to rounding whatever its step count.

``turns``
    Closed-form turns ``exp(-i a/2 (cos(phase) X + sin(phase) Y))``.

``expm_action``
    Exact action ``exp(-i t H) psi`` of a constant
    ``H = sum_q ax[q] X_q + ay[q] Y_q + diag`` on a statevector or on the
    columns of a propagator matrix: a pure phase when H is diagonal, else the
    scaled truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci. Comput.
    33, 2011) built on ``apply_h``.

``rk4_evolve``
    Fixed-step RK4 for ``dpsi/dt = -i H(t) psi`` with the same H, its
    transverse coefficients varying in time and sampled per step at (start,
    midpoint, end) so segment boundaries stay one-sided.  Where ``sim`` runs
    it, and which of its two paths (transfer product or matrix-free steps)
    a call takes, is stated once in the ``sim`` module docstring.

``IntegrationError`` is the one error both engines raise when a propagated
state or unitary loses its norm beyond tolerance.
"""
import math

import numpy as np


class IntegrationError(RuntimeError):
    """Propagation lost norm or unitarity beyond tolerance."""


_SQRT3 = math.sqrt(3.0)
_GAUSS_NODES = (0.5 - _SQRT3 / 6, 0.5 + _SQRT3 / 6)
_CF4_WEIGHTS = (0.25 + _SQRT3 / 6, 0.25 - _SQRT3 / 6)


def cf4_steps(w1, w2, h):
    """CF4 step coefficients ``(cx, cy, dx, dy)`` for steps of length ``h``.

    ``w1`` and ``w2`` are the complex drive rates ``wx + i wy`` sampled at
    ``t0 + g1 h`` and ``t0 + g2 h`` (``g1, g2 = _GAUSS_NODES``) of each step.
    """
    a1, a2 = _CF4_WEIGHTS
    c = h * (a1 * w1 + a2 * w2)
    d = h * (a2 * w1 + a1 * w2)
    return c.real, c.imag, d.real, d.imag


def cf4_chain(rate, t0, h, n, wz=0.0):
    """Unitaries from I after each of ``n`` CF4 steps of length ``h`` from
    ``t0``, shape (n + 1, 2, 2) with I first, for the complex drive rate
    ``rate(t) = wx + i wy``, called on all steps at each Gauss node, plus the
    constant Z rate ``wz``.  A 1-D ``wz`` gives one chain per Z rate on the
    same rate samples, shape (len(wz), n + 1, 2, 2).  The CF4 weights sum to
    1/2, so both factors of a step carry the Z coefficient ``h wz / 2``."""
    t = t0 + np.arange(n) * h
    g1, g2 = _GAUSS_NODES
    steps = cf4_steps(rate(t + g1 * h), rate(t + g2 * h), h)
    wz = np.asarray(wz, dtype=float)
    out = np.empty(wz.shape + (n + 1, 2, 2), dtype=np.complex128)
    for w, chain in zip(wz.ravel(), out.reshape(-1, n + 1, 2, 2)):
        chain[0] = np.eye(2)
        su2_chain(*steps, chain, 0.5 * h * w)
    return out


# ---------------------------------------------------------------------------
# SU(2) chain
# ---------------------------------------------------------------------------

def turns(phase, angles):
    """exp(-i a/2 (cos(phase) X + sin(phase) Y)) for each a in ``angles``,
    shape (len(angles), 2, 2); a scalar angle gives one turn."""
    a = 0.5 * np.asarray(angles, dtype=float)
    c, s = np.cos(a), -1j * np.sin(a)
    e = complex(math.cos(phase), math.sin(phase))
    return np.stack((c, s * e.conjugate(), s * e, c), axis=-1).reshape(-1, 2, 2)


def _quat_mul(a, b):
    """Quaternion of U(a) U(b), with U(q) = q0 I - i (q1 X + q2 Y + q3 Z)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack((a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
                     a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
                     a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1))


def _rotation_quat(ax, ay, az=0.0):
    """Quaternion of exp(-i (ax X + ay Y + az Z) / 2); zero rates give
    exactly I."""
    th = np.hypot(np.hypot(ax, ay), az)
    s = np.sin(0.5 * th) / np.where(th > 0.0, th, 1.0)
    return np.stack((np.cos(0.5 * th), s * ax, s * ay, s * az))


def _prefix_products(q):
    """Inclusive prefix products ``q[:, k] ... q[:, 0]`` by the work-efficient
    pairwise scan: combine neighbours, scan the half-length list, then fill in
    the even entries."""
    m = q.shape[1]
    if m < 2:
        return q
    odd = _prefix_products(_quat_mul(q[:, 1::2], q[:, 0:-1:2]))
    out = np.empty_like(q)
    out[:, 0] = q[:, 0]
    out[:, 1::2] = odd
    out[:, 2::2] = _quat_mul(q[:, 2::2], odd[:, :(m - 1) // 2])
    return out


def su2_chain(cx, cy, dx, dy, out, z=0.0):
    """Fill ``out[1:]`` with the unitaries after each step, from ``out[0]``;
    both factors of every step carry the Z coefficient ``z``."""
    moving = (cx != 0.0) | (cy != 0.0) | (dx != 0.0) | (dy != 0.0) | (z != 0.0)
    steps = _quat_mul(_rotation_quat(dx[moving], dy[moving], z),
                      _rotation_quat(cx[moving], cy[moving], z))
    prefix = _prefix_products(steps)
    # every prefix is a product of unit quaternions; dividing by its norm
    # keeps the scan's rounding from growing with the step count
    prefix /= np.linalg.norm(prefix, axis=0)
    # column k is the product of the first k moving steps; a zero step
    # reuses the column of the last moving step, so its node is copied exactly
    prefix = np.concatenate(([[1.0], [0.0], [0.0], [0.0]], prefix), axis=1)
    w, x, y, z = prefix[:, np.cumsum(moving)]
    u = np.empty((w.shape[0], 2, 2), dtype=np.complex128)
    u.real[:, 0, 0], u.imag[:, 0, 0] = w, -z
    u.real[:, 0, 1], u.imag[:, 0, 1] = -y, -x
    u.real[:, 1, 0], u.imag[:, 1, 0] = y, -x
    u.real[:, 1, 1], u.imag[:, 1, 1] = w, z
    np.einsum("nij,jk->nik", u, out[0].copy(), out=out[1:])


# ---------------------------------------------------------------------------
# Statevector / propagator evolution
# ---------------------------------------------------------------------------

def apply_h(psi, ax, ay, diag, nq):
    """out = -i H psi, vectorized; psi shape (dim, ncol).  The rates ``ax``,
    ``ay`` are one per qubit, shape (nq,), or one per qubit and column, shape
    (nq, ncol)."""
    out = diag[:, None] * psi
    dim = psi.shape[0]
    for q in range(nq):
        a = ax[q]
        b = ay[q]
        if a.ndim == 0:
            if a == 0.0 and b == 0.0:
                continue
        elif not (a.any() or b.any()):
            continue
        pre = 1 << q
        post = dim // (2 * pre)
        ps = psi.reshape(pre, 2, post, -1)
        ot = out.reshape(pre, 2, post, -1)
        ot[:, 0] += (a - 1j * b) * ps[:, 1]
        ot[:, 1] += (a + 1j * b) * ps[:, 0]
    return -1j * out


def expm_action(psi, ax, ay, diag, t, nq):
    """exp(-i t H) psi for constant per-qubit rates; psi shape (dim, ncol).

    The series runs in ``s = ceil(|H|_1 t)`` steps of length ``h = t / s``,
    with the exact 1-norm ``max|diag| + sum_q |ax_q + i ay_q|``.  Because
    ``|h H|_2 <= |h H|_1 <= 1``, the k-th Taylor term is at most 1/k of the one
    before and the neglected tail is below the last term kept, so each step
    stops once a term falls below 2**-53 of the running sum.
    """
    if not (np.any(ax) or np.any(ay)):
        return np.exp(-1j * t * diag)[:, None] * psi
    norm = float(np.abs(diag).max() + np.hypot(ax, ay).sum())
    steps = max(1, math.ceil(norm * t))
    h = t / steps
    for _ in range(steps):
        term = psi
        k = 1
        while True:
            term = apply_h(term, ax, ay, diag, nq) * (h / k)
            psi = psi + term
            # written so that a NaN also ends the series
            if not np.linalg.norm(term) > 2.0 ** -53 * np.linalg.norm(psi):
                break
            k += 1
    return psi


# Transfer matrices pay off up to dim 32: for one SIM-XY4-2 DRAG cycle
# propagator (default device) at chunks of 2**12 amplitudes, on 2 cores with
# numpy 2.4, the product and the step loop took 0.08 s and 0.47 s at n = 4,
# 0.38 s and 0.55 s at n = 5, but 3.1 s and 1.6 s at n = 6.  A chunk holds
# 2**12 // dim**2 steps, so each of its arrays stays at 64 KiB.
_RK4_PRODUCT_MAX_DIM = 32
_RK4_CHUNK_AMPLITUDES = 1 << 12


def _rk4_step(psi, ax, ay, diag, h, nq):
    """``psi`` after one RK4 step of length ``h``, in place; the rates are
    (3, nq) at (start, midpoint, end), or (3, nq, ncol) with ``h`` (ncol,)
    for one step per column."""
    k1 = apply_h(psi, ax[0], ay[0], diag, nq)
    k2 = apply_h(psi + (0.5 * h) * k1, ax[1], ay[1], diag, nq)
    k3 = apply_h(psi + (0.5 * h) * k2, ax[1], ay[1], diag, nq)
    k4 = apply_h(psi + h * k3, ax[2], ay[2], diag, nq)
    psi += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ordered_product(t):
    """``t[m-1] @ ... @ t[0]`` for ``t`` of shape (m, dim, dim), by pairwise
    products of neighbours."""
    while t.shape[0] > 1:
        pairs = t[1::2] @ t[0:-1:2]
        t = np.concatenate((pairs, t[-1:])) if t.shape[0] % 2 else pairs
    return t[0]


def _rk4_transfer(ax, ay, diag, h, nq):
    """The RK4 propagator ``T[nsteps-1] @ ... @ T[0]``: each chunk lays out
    one identity per step as columns and takes one RK4 step on all of them
    at once, with each column at its own step's rates."""
    dim = diag.shape[0]
    per_chunk = max(1, _RK4_CHUNK_AMPLITUDES // (dim * dim))
    u = np.eye(dim, dtype=complex)
    for lo in range(0, h.shape[0], per_chunk):
        chunk = slice(lo, lo + per_chunk)
        m = h[chunk].shape[0]
        x = np.tile(np.eye(dim, dtype=complex), m)
        # rates (m, 3, nq) -> (3, nq, m * dim): each step's over its columns
        rx, ry = (np.repeat(r[chunk].transpose(1, 2, 0), dim, axis=2) for r in (ax, ay))
        _rk4_step(x, rx, ry, diag, np.repeat(h[chunk], dim), nq)
        u = _ordered_product(x.reshape(dim, m, dim).transpose(1, 0, 2)) @ u
    return u


def rk4_evolve(psi, ax, ay, diag, h, reps):
    """``reps`` passes of RK4 steps ``h`` (nsteps,) at rates ``ax``, ``ay``
    (nsteps, 3, nq) on ``psi`` (dim, ncol), in place."""
    nq = ax.shape[2]
    dim = psi.shape[0]
    if dim <= _RK4_PRODUCT_MAX_DIM:
        u = np.linalg.matrix_power(_rk4_transfer(ax, ay, diag, h, nq), reps)
        psi[...] = u @ psi
        return
    for _ in range(reps):
        for s in range(h.shape[0]):
            _rk4_step(psi, ax[s], ay[s], diag, h[s], nq)
