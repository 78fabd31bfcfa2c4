import numpy as np
import pytest
from scipy.linalg import expm

from crdd import _kernels, sequences
from crdd.sequences import PulseShape, envelope_amplitude

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


def envelope_rate(shape):
    """Complex drive rate of a pi pulse of ``shape`` in tau_p = 1 units."""
    def rate(t):
        wi, wq = envelope_amplitude(shape, np.pi, 1.0, t)
        return wi + 1j * wq
    return rate


class TestCf4Chain:
    def test_calibrated_drag_pi_pulse(self):
        scale, detuning = sequences._calibrate_drag(0.25, 0.1)
        out = _kernels.cf4_chain(
            lambda t: sequences._drag_complex_envelope(np.pi, 1.0, 0.25, 0.1, scale, detuning, t),
            0.0, 1.0 / sequences._CAL_SAMPLES, sequences._CAL_SAMPLES)
        assert out.shape == (sequences._CAL_SAMPLES + 1, 2, 2)
        assert np.array_equal(out[0], np.eye(2))
        assert np.abs(out[-1] - np.array([[0, -1j], [-1j, 0]])).max() <= 1e-13

    def test_constant_rates_with_z_are_exact(self):
        # CF4 is exact on a constant H; each Z rate gets its own chain on the
        # same rate samples
        w, wz, n = 0.7 - 1.9j, np.array([0.0, 0.4, -2.3]), 8
        out = _kernels.cf4_chain(lambda t: np.full(t.shape, w), 0.0, 0.25, n, wz)
        assert out.shape == (3, n + 1, 2, 2)
        for chain, z in zip(out, wz):
            h = (w.real * X + w.imag * Y + z * np.diag([1.0, -1.0])) / 2
            for k in (1, n):
                assert np.abs(chain[k] - expm(-1j * 0.25 * k * h)).max() < 1e-14

    @pytest.mark.parametrize("steps", [256, 2048, 8192])
    def test_long_drag_chain_stays_unitary(self, steps):
        # the scan's prefix quaternions are renormalized, so the defect does
        # not grow with the step count (unnormalized: 1.3e-13 at 8192)
        out = _kernels.cf4_chain(envelope_rate(PulseShape.gaussian_drag()), 0.0, 1.0 / steps,
                                 steps)
        defect = np.abs(np.einsum("nji,njk->nik", out.conj(), out) - np.eye(2)).max()
        assert defect <= 1e-15

    @pytest.mark.parametrize("shape", [PulseShape.gaussian(), PulseShape.gaussian_drag(
        drag_coefficient=0.1)], ids=lambda s: s.kind)
    def test_fourth_order(self, shape):
        rate = envelope_rate(shape)
        ref = _kernels.cf4_chain(rate, 0.0, 1.0 / 4096, 4096)[-1]
        errs = [np.abs(_kernels.cf4_chain(rate, 0.0, 1.0 / n, n)[-1] - ref).max()
                for n in (16, 32, 64, 128)]
        assert min(np.log2(np.divide(errs[:-1], errs[1:]))) >= 3.9


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


def rk4_steps(psi, ax, ay, diag, h, reps):
    """Classical RK4, one step at a time, on a copy of ``psi``."""
    nq = ax.shape[2]
    for _ in range(reps):
        for s in range(len(h)):
            k1 = _kernels.apply_h(psi, ax[s, 0], ay[s, 0], diag, nq)
            k2 = _kernels.apply_h(psi + (0.5 * h[s]) * k1, ax[s, 1], ay[s, 1], diag, nq)
            k3 = _kernels.apply_h(psi + (0.5 * h[s]) * k2, ax[s, 1], ay[s, 1], diag, nq)
            k4 = _kernels.apply_h(psi + h[s] * k3, ax[s, 2], ay[s, 2], diag, nq)
            psi = psi + (h[s] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


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

    def test_apply_per_column_rates_matches_dense(self):
        rng = np.random.default_rng(4)
        nq = 3
        dim = 1 << nq
        ncol = 5
        ax = rng.normal(size=(nq, ncol))
        ay = rng.normal(size=(nq, ncol))
        ax[1] = ay[1] = 0.0  # a qubit undriven in every column
        ax[2, 3] = ay[2, 3] = 0.0  # and one undriven in one column only
        ax[0] = 0.0  # a qubit driven along Y alone
        diag = rng.normal(size=dim)
        psi = rng.normal(size=(dim, ncol)) + 1j * rng.normal(size=(dim, ncol))
        got = _kernels.apply_h(psi, ax, ay, diag, nq)
        for c in range(ncol):
            want = -1j * (dense_h(ax[:, c], ay[:, c], diag) @ psi[:, c])
            assert np.abs(got[:, c] - want).max() < 1e-12, c

    @pytest.mark.parametrize("nq, ncol, reps",
                             [(1, 2, 1), (2, 4, 1), (3, 8, 1), (4, 16, 1), (5, 32, 1),
                              (2, 1, 4), (4, 8, 2), (4, 16, 3)])
    def test_transfer_product_matches_step_loop(self, nq, ncol, reps):
        # 37 steps: several chunks at dim 16 and 32, an odd count in each
        # product, and every qubit's rates zero over some whole chunk
        rng = np.random.default_rng(100 * nq + ncol + reps)
        dim = 1 << nq
        ax, ay = rng.normal(size=(2, 37, 3, nq))
        ax[:20, :, 0] = ay[:20, :, 0] = 0.0
        ax[20:, :, -1] = ay[20:, :, -1] = 0.0
        diag = rng.normal(size=dim)
        h = rng.uniform(0.005, 0.02, 37)
        psi = rng.normal(size=(dim, ncol)) + 1j * rng.normal(size=(dim, ncol))
        psi /= np.linalg.norm(psi, axis=0)
        got = psi.copy()
        _kernels.rk4_evolve(got, ax, ay, diag, h, reps)
        assert np.abs(got - rk4_steps(psi, ax, ay, diag, h, reps)).max() < 1e-13

    @pytest.mark.parametrize("nq, ncol, reps, batched",
                             [(4, 1, 1, True), (4, 15, 1, True), (4, 16, 1, True),
                              (4, 8, 2, True), (5, 32, 1, True), (6, 64, 1, False)])
    def test_path_follows_shape(self, monkeypatch, nq, ncol, reps, batched):
        # transfer matrices wherever dim <= 32, whatever the column count;
        # the result is RK4 either way
        calls = []
        transfer = _kernels._rk4_transfer
        monkeypatch.setattr(_kernels, "_rk4_transfer",
                            lambda *args: calls.append(args) or transfer(*args))
        rng = np.random.default_rng(nq + ncol)
        dim = 1 << nq
        ax, ay = rng.normal(size=(2, 3, 3, nq))
        diag = rng.normal(size=dim)
        h = np.full(3, 0.01)
        psi = np.eye(dim, dtype=complex)[:, :ncol]
        got = psi.copy()
        _kernels.rk4_evolve(got, ax, ay, diag, h, reps)
        assert len(calls) == batched
        assert np.abs(got - rk4_steps(psi, ax, ay, diag, h, reps)).max() < 1e-13


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

    @pytest.mark.parametrize("ncol", [8, 11])
    def test_diagonal_is_exact_phase_on_dim_columns(self, monkeypatch, ncol):
        # the phase shortcut comes before the dense path, so no H is built
        rng = np.random.default_rng(ncol)
        nq = 3
        diag = rng.normal(size=1 << nq)
        psi = rng.normal(size=(1 << nq, ncol)) + 1j * rng.normal(size=(1 << nq, ncol))
        zero = np.zeros(nq)
        monkeypatch.setattr(_kernels, "apply_h", None)
        got = _kernels.expm_action(psi, zero, zero, diag, 37.5, nq)
        assert np.array_equal(got, np.exp(-1j * 37.5 * diag)[:, None] * psi)

    @pytest.mark.parametrize("nq", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("norm_t", [0.5, 3.0, 50.0])
    def test_dense_path_matches_scipy(self, monkeypatch, nq, norm_t):
        # on at least dim columns U is built once from -iH on the identity,
        # scaled by 2**-s (s = 6 at |H|_1 t = 50), summed and squared s times.
        # At |H|_1 t = 1e3 (s = 10) the largest error measured for n = 2..6
        # was 7.1e-14.
        rng = np.random.default_rng(10 * nq + int(norm_t))
        dim = 1 << nq
        ax, ay = rng.normal(size=(2, nq))
        diag = rng.normal(size=dim)
        t = norm_t / (np.abs(diag).max() + np.hypot(ax, ay).sum())
        psi = rng.normal(size=(dim, dim + 3)) + 1j * rng.normal(size=(dim, dim + 3))
        calls = []
        apply_h = _kernels.apply_h

        def counting(x, *args):
            calls.append(x.shape)
            return apply_h(x, *args)

        monkeypatch.setattr(_kernels, "apply_h", counting)
        u = expm(-1j * t * dense_h(ax, ay, diag))
        assert np.abs(_kernels.expm_action(np.eye(dim, dtype=complex), ax, ay, diag, t, nq)
                      - u).max() < 1e-13
        got = _kernels.expm_action(psi, ax, ay, diag, t, nq)
        assert np.abs(got - u @ psi).max() < 1e-13 * np.abs(psi).max() * dim
        assert calls == [(dim, dim)] * 2
