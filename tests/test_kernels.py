import numpy as np
import pytest
from scipy.linalg import expm

from crdd import _kernels

X = np.array([[0, 1], [1, 0]], complex)
Y = np.array([[0, -1j], [1j, 0]], complex)


def rotation(ax, ay):
    """exp(-i (ax X + ay Y) / 2) in closed form."""
    th = np.hypot(ax, ay)
    if th == 0.0:
        return np.eye(2, dtype=complex)
    return np.cos(th / 2) * np.eye(2) - 1j * np.sin(th / 2) / th * (ax * X + ay * Y)


def chain(cx, cy, dx, dy, u0):
    out = np.empty((len(cx) + 1, 2, 2), complex)
    out[0] = u0
    _kernels.su2_chain(cx, cy, dx, dy, out)
    return out


class TestSu2Chain:
    def test_matches_sequential_product(self):
        rng = np.random.default_rng(1)
        n = 301
        cx, cy, dx, dy = rng.normal(0, 0.3, (4, n))
        zero = rng.random(n) < 0.3
        for a in (cx, cy, dx, dy):
            a[zero] = 0.0
        # instantaneous pi rotations about equatorial axes
        for i, phase in ((7, 0.0), (100, np.pi / 2), (250, 1.3)):
            cx[i], cy[i], dx[i], dy[i] = np.pi * np.cos(phase), np.pi * np.sin(phase), 0, 0
            zero[i] = False
        u0 = rotation(0.4, -1.1) @ np.diag([1j, 1j])
        out = chain(cx, cy, dx, dy, u0)
        expected = u0
        for i in range(n):
            expected = rotation(dx[i], dy[i]) @ rotation(cx[i], cy[i]) @ expected
            assert np.abs(out[i + 1] - expected).max() < 1e-13, i
        assert np.all(out[1:][zero] == out[:-1][zero])

    def test_long_chain_stays_unitary(self):
        steps = np.random.default_rng(2).normal(0, 0.02, (4, 32895))
        out = chain(*steps, np.eye(2))
        defect = np.abs(np.einsum("nji,njk->nik", out.conj(), out) - np.eye(2)).max()
        assert defect < 1e-12

    def test_zero_steps_copy_nodes(self):
        z = np.zeros(3)
        out = chain(z, z, z, z, X)
        assert np.abs(out - out[0]).max() == 0.0

    def test_exact_pi_rotation(self):
        # one step carrying (pi, 0) in the first factor = exp(-i pi X / 2)
        z = np.zeros(1)
        out = chain(np.array([np.pi]), z, z, z, np.eye(2))
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.abs(out[1] - expected).max() < 1e-15


def dense_h(ax, ay, diag):
    """sum_q ax[q] X_q + ay[q] Y_q + diag as a dense matrix."""
    nq = len(ax)
    h = np.diag(diag).astype(complex)
    for q in range(nq):
        op = ax[q] * X + ay[q] * Y
        full = np.eye(1, dtype=complex)
        for k in range(nq):
            full = np.kron(full, op if k == q else np.eye(2, dtype=complex))
        h += full
    return h


class TestRk4Evolve:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(3)
        nq = 3
        dim = 1 << nq
        ax = rng.normal(size=nq)
        ay = rng.normal(size=nq)
        diag = rng.normal(size=dim)
        psi = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        got = _kernels.apply_h(psi, ax, ay, diag, nq)
        assert np.abs(got - (-1j) * (dense_h(ax, ay, diag) @ psi)).max() < 1e-12


class TestExpmAction:
    @pytest.mark.parametrize("ncol", [1, 16])
    @pytest.mark.parametrize("scale", [1e-3, 0.3, 5.0, 50.0])
    def test_matches_dense_expm(self, ncol, scale):
        rng = np.random.default_rng(int(scale * 1000) + ncol)
        nq = 4
        dim = 1 << nq
        ax, ay = rng.normal(size=(2, nq))
        ax[1] = ay[1] = 0.0  # an undriven qubit
        diag = rng.normal(size=dim)
        h = dense_h(ax, ay, diag)
        t = scale / np.linalg.norm(h, 2)
        psi = rng.normal(size=(dim, ncol)) + 1j * rng.normal(size=(dim, ncol))
        psi /= np.linalg.norm(psi, axis=0)
        got = _kernels.expm_action(psi.copy(), ax, ay, diag, t, nq)
        assert np.abs(got - expm(-1j * t * h) @ psi).max() < 1e-12

    def test_diagonal_is_exact_phase(self):
        rng = np.random.default_rng(5)
        nq = 3
        diag = rng.normal(size=1 << nq)
        psi = rng.normal(size=(1 << nq, 4)) + 1j * rng.normal(size=(1 << nq, 4))
        zero = np.zeros(nq)
        got = _kernels.expm_action(psi, zero, zero, diag, 37.5, nq)
        assert np.array_equal(got, np.exp(-1j * 37.5 * diag)[:, None] * psi)
