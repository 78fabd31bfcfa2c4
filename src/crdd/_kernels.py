"""Hot numeric kernels, one numpy implementation each.

``cf4_steps``
    Per-step coefficients of the fourth-order commutator-free (CF4)
    integrator for a single-qubit drive: two closed-form SU(2) factors per
    step, built from the complex drive rate sampled at the two Gauss nodes.

``su2_chain``
    Sequential composition of per-step SU(2) factors
    ``U <- exp(-i(dx X + dy Y)/2) exp(-i(cx X + cy Y)/2) U`` recording the
    unitary after every step.  Steps with all-zero coefficients copy the node
    exactly (used for delays and duplicated piece boundaries); steps with only
    a (cx, cy) pair realize instantaneous rotations.  The prefix products are
    formed as unit quaternions by a work-efficient log-depth scan (Blelloch
    1990).

``expm_action``
    Exact action ``exp(-i t H) psi`` of a constant
    ``H = sum_q ax[q] X_q + ay[q] Y_q + diag`` on a statevector or on the
    columns of a propagator matrix: a pure phase when H is diagonal, else the
    scaled truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci. Comput.
    33, 2011) built on ``apply_h``.

``rk4_evolve``
    Fixed-step RK4 for ``dpsi/dt = -i H(t) psi`` with the same H, its
    transverse coefficients varying in time, applied matrix-free.  Transverse
    coefficients are sampled per step at (start, midpoint, end) so segment
    boundaries stay one-sided.
"""
import math

import numpy as np

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


# ---------------------------------------------------------------------------
# SU(2) chain
# ---------------------------------------------------------------------------

def _quat_mul(a, b):
    """Quaternion of U(a) U(b), with U(q) = q0 I - i (q1 X + q2 Y + q3 Z)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack((a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
                     a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
                     a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1))


def _rotation_quat(ax, ay):
    """Quaternion of exp(-i (ax X + ay Y) / 2); zero rates give exactly I."""
    th = np.hypot(ax, ay)
    s = np.sin(0.5 * th) / np.where(th > 0.0, th, 1.0)
    return np.stack((np.cos(0.5 * th), s * ax, s * ay, np.zeros_like(th)))


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


def su2_chain(cx, cy, dx, dy, out):
    """Fill ``out[1:]`` with the unitaries after each step, from ``out[0]``."""
    moving = (cx != 0.0) | (cy != 0.0) | (dx != 0.0) | (dy != 0.0)
    steps = _quat_mul(_rotation_quat(dx[moving], dy[moving]),
                      _rotation_quat(cx[moving], cy[moving]))
    # column k is the product of the first k moving steps; a zero step
    # reuses the column of the last moving step, so its node is copied exactly
    prefix = np.concatenate(([[1.0], [0.0], [0.0], [0.0]], _prefix_products(steps)), axis=1)
    w, x, y, z = prefix[:, np.cumsum(moving)]
    u = np.empty((w.shape[0], 2, 2), dtype=np.complex128)
    u.real[:, 0, 0], u.imag[:, 0, 0] = w, -z
    u.real[:, 0, 1], u.imag[:, 0, 1] = -y, -x
    u.real[:, 1, 0], u.imag[:, 1, 0] = y, -x
    u.real[:, 1, 1], u.imag[:, 1, 1] = w, z
    np.einsum("nij,jk->nik", u, out[0].copy(), out=out[1:])


# ---------------------------------------------------------------------------
# Matrix-free statevector / propagator evolution
# ---------------------------------------------------------------------------

def apply_h(psi, ax, ay, diag, nq):
    """out = -i H psi, vectorized; psi shape (dim, ncol)."""
    out = diag[:, None] * psi
    dim = psi.shape[0]
    for q in range(nq):
        a = ax[q]
        b = ay[q]
        if a == 0.0 and b == 0.0:
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


def rk4_evolve(psi, ax, ay, diag, h, reps):
    nsteps = ax.shape[0]
    nq = ax.shape[2]
    for _ in range(reps):
        for s in range(nsteps):
            hs = h[s]
            k1 = apply_h(psi, ax[s, 0], ay[s, 0], diag, nq)
            k2 = apply_h(psi + (0.5 * hs) * k1, ax[s, 1], ay[s, 1], diag, nq)
            k3 = apply_h(psi + (0.5 * hs) * k2, ax[s, 1], ay[s, 1], diag, nq)
            k4 = apply_h(psi + hs * k3, ax[s, 2], ay[s, 2], diag, nq)
            psi += (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
