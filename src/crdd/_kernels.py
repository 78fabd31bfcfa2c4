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

``rk4_evolve``
    Fixed-step RK4 for ``dpsi/dt = -i H(t) psi`` with
    ``H(t) = sum_q ax[q](t) X_q + ay[q](t) Y_q + diag`` applied matrix-free to
    a statevector or to the columns of a propagator matrix.  Transverse
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
# Matrix-free RK4 statevector / propagator evolution
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
