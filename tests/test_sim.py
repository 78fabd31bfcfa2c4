import math

import numpy as np
import pytest
from scipy.linalg import expm

from crdd import _kernels, control
from crdd.control import chi1, control_trace
from crdd.sequences import PulseShape, QubitGraph, Segment, Sequence, cr_dd, sim_dd, two_color
from crdd.sim import (
    CapacityError, DeviceModel, IntegrationError, cycle_propagator,
    decode_probabilities, dense_hamiltonian, encode_decode_survival, evolve,
    hamiltonian_diagonal, idle_schedule, prepare_states, product_state,
    sample_survival, shot_rng, StateSpec,
)

PI = math.pi
SQUARE = PulseShape.square()
IDEAL = PulseShape.ideal()


def two_qubit_device(j, tau_p=1.0, b=None):
    g = two_color(QubitGraph.path(2))
    bmat = np.zeros((2, 3)) if b is None else np.asarray(b, dtype=float)
    return DeviceModel(g, np.array([j], dtype=float), bmat, tau_p)


def single_qubit_device(bvec, tau_p=1.0):
    g = two_color(QubitGraph(1, ()))
    return DeviceModel(g, np.zeros(0), np.array([bvec], dtype=float), tau_p)


class TestHamiltonian:
    def test_zero_model_zero_operator(self):
        dev = two_qubit_device(0.0)
        h = dense_hamiltonian(dev, np.zeros((2, 2)))
        assert np.abs(h).max() == 0.0

    def test_dense_matches_matrix_free(self):
        rng = np.random.default_rng(0)
        g = two_color(QubitGraph(3, ((0, 1), (1, 2))))
        dev = DeviceModel(g, rng.normal(size=2), rng.normal(size=(3, 3)), 1.0)
        drives = rng.normal(size=(3, 2))
        h = dense_hamiltonian(dev, drives)
        assert np.abs(h - h.conj().T).max() < 1e-12
        # the oracle against the production kernel at the device's rates
        psi = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        rates = 0.5 * drives + dev.b[:, :2]
        out = _kernels.apply_h(psi, rates[:, 0], rates[:, 1], hamiltonian_diagonal(dev), 3)
        assert np.abs(-1j * h @ psi - out).max() < 1e-12

    def test_capacity_error(self):
        g = QubitGraph(15, ())
        dev = DeviceModel(two_color(g), np.zeros(0), np.zeros((15, 3)), 1.0)
        with pytest.raises(CapacityError):
            dense_hamiltonian(dev, np.zeros((15, 2)))


class TestEvolveOracles:
    def test_zz_survival_cosine(self):
        j, t = 0.01, 5.0
        dev = two_qubit_device(j)
        psi0 = product_state(("+x", "+x"))
        psi = evolve(dev, idle_schedule(t), psi0=psi0)
        survival = abs(np.vdot(psi0, psi)) ** 2
        assert survival == pytest.approx(math.cos(j * t) ** 2, abs=1e-12)

    def test_larmor_precession(self):
        delta, t = 0.02, 7.0
        dev = single_qubit_device((0.0, 0.0, delta))
        psi0 = product_state(("+x",))
        psi = evolve(dev, idle_schedule(t), psi0=psi0)
        assert abs(np.vdot(psi0, psi)) ** 2 == pytest.approx(
            math.cos(delta * t) ** 2, abs=1e-12)

    def test_zero_noise_dd_is_identity(self):
        dev = two_qubit_device(0.0)
        sched = cr_dd("XY4", "UR12", tau_p=1.0, shape=PulseShape.gaussian_drag())
        seqs = [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]
        psi0 = product_state(("+y", "-x"))
        psi = evolve(dev, seqs, repetitions=3, psi0=psi0)
        assert abs(np.vdot(psi0, psi)) ** 2 > 1 - 1e-9

    def test_sim_ideal_leaves_zz_invariant(self):
        j_tau_c = 0.02
        tau_c = 4.0  # ideal pulses: four unit delays
        dev = two_qubit_device(j_tau_c / tau_c)
        psi0 = product_state(("+x", "+x"))
        psi = evolve(dev, sim_dd("XY4", 2, 1.0, IDEAL), psi0=psi0)
        infidelity = 1 - abs(np.vdot(psi0, psi)) ** 2
        assert infidelity == pytest.approx(math.sin(j_tau_c) ** 2, rel=1e-8)

    def test_cr_suppresses_by_100x(self):
        j_tau_c = 0.02
        psi0 = product_state(("+x", "+x"))
        dev = two_qubit_device(j_tau_c / 4.0)
        psi = evolve(dev, sim_dd("XY4", 2, 1.0, IDEAL), psi0=psi0)
        inf_sim = 1 - abs(np.vdot(psi0, psi)) ** 2
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
        dev = two_qubit_device(j_tau_c / 8.0)
        psi = evolve(dev, [sched.red, sched.blue], psi0=psi0, samples_per_pulse=512)
        inf_cr = 1 - abs(np.vdot(psi0, psi)) ** 2
        assert inf_sim / max(inf_cr, 1e-300) >= 100

    def test_matches_brute_force_propagator(self):
        # constant drive on qubit 0 plus couplings: compare against expm
        rng = np.random.default_rng(1)
        dev = two_qubit_device(0.03, b=rng.normal(scale=0.02, size=(2, 3)))
        seq = Sequence((Segment.for_pulse(0.7, 1.0, SQUARE),))
        psi0 = product_state(("+y", "-z"))
        psi = evolve(dev, [seq, seq], psi0=psi0, samples_per_pulse=512)
        drives = np.array([[PI * math.cos(0.7), PI * math.sin(0.7)],
                           [PI * math.cos(0.7), PI * math.sin(0.7)]])
        h = dense_hamiltonian(dev, drives)
        expected = expm(-1j * h * 1.0) @ psi0
        assert np.abs(psi - expected).max() < 1e-9

    def test_duration_mismatch(self):
        dev = two_qubit_device(0.0)
        with pytest.raises(ValueError, match="durations differ"):
            evolve(dev, [idle_schedule(1.0), idle_schedule(2.0)])

    def test_device_compares_by_identity_and_hashes(self):
        a, b = DeviceModel.default(), DeviceModel.default()
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_norm_preserved_long_run(self):
        dev = two_qubit_device(5e-3)
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
        psi = evolve(dev, [sched.red, sched.blue], repetitions=50,
                     psi0=product_state(("+x", "+y")))
        assert abs(np.linalg.norm(psi) - 1) < 1e-9

    def test_nan_state_raises(self):
        dev = two_qubit_device(5e-3)
        with pytest.raises(IntegrationError, match="nan"):
            evolve(dev, idle_schedule(1.0), psi0=[math.nan, 0, 0, 0])

    @pytest.mark.parametrize("psi0", [
        np.zeros(4), np.zeros((4, 2)), np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        np.zeros((4, 0)), np.ones(8) / math.sqrt(8), np.ones(2) / math.sqrt(2),
        np.ones((2, 4)) / 2, np.array(1.0),
    ], ids=["zero", "zero_columns", "one_zero_column", "no_columns", "too_long", "too_short",
            "transposed", "scalar"])
    def test_unusable_psi0(self, psi0):
        dev = two_qubit_device(5e-3)
        with pytest.raises(ValueError, match="psi0"):
            evolve(dev, idle_schedule(1.0), psi0=psi0)

    @pytest.mark.parametrize("norm_tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_unusable_norm_tol(self, norm_tol):
        dev = two_qubit_device(5e-3)
        with pytest.raises(ValueError, match="norm_tol"):
            evolve(dev, idle_schedule(1.0), norm_tol=norm_tol)

    @pytest.mark.parametrize("samples_per_pulse", [16.5, True])
    def test_non_integral_samples_per_pulse(self, samples_per_pulse):
        dev = DeviceModel.default(n=2)
        cr = cr_dd("XY4", tau_p=dev.tau_p, shape=SQUARE)
        with pytest.raises(ValueError, match="samples_per_pulse"):
            cycle_propagator(dev, [cr.red, cr.blue], samples_per_pulse=samples_per_pulse)

    @pytest.mark.parametrize("repetitions", [-2, -3, 2.5])
    def test_unusable_repetitions(self, repetitions):
        dev = DeviceModel.default(n=2)
        cr = cr_dd("XY4", tau_p=dev.tau_p, shape=SQUARE)
        state = StateSpec("type1", ("+x", "+x"), "type1_+x")
        with pytest.raises(ValueError, match="repetitions"):
            evolve(dev, [cr.red, cr.blue], repetitions=repetitions,
                   psi0=product_state(state.poles))
        with pytest.raises(ValueError, match="repetitions"):
            encode_decode_survival(state, dev, [cr.red, cr.blue], repetitions, 100, 1)

    def test_zero_repetitions_is_identity(self):
        dev = DeviceModel.default(n=2)
        cr = cr_dd("XY4", tau_p=dev.tau_p, shape=SQUARE)
        psi0 = product_state(("+x", "-y"))
        assert np.array_equal(evolve(dev, [cr.red, cr.blue], repetitions=0, psi0=psi0), psi0)

    def test_one_integration_error_class(self, monkeypatch):
        assert IntegrationError is control.IntegrationError
        expm_action = _kernels.expm_action

        def lossy(*args):
            return 0.5 * expm_action(*args)

        monkeypatch.setattr(_kernels, "expm_action", lossy)
        with pytest.raises(control.IntegrationError, match="norm drift"):
            evolve(two_qubit_device(5e-3), idle_schedule(1.0))


class TestExactIntervals:
    def test_long_idle_with_transverse_fields(self):
        dev = DeviceModel.default(n=4)
        j = dev.zz[0]
        b = dev.b.copy()
        b[:, :2] = np.random.default_rng(6).uniform(-0.1, 0.1, (4, 2)) * j
        dev = DeviceModel(dev.graph, dev.zz, b, dev.tau_p)
        t = 65536 * dev.tau_p
        u = cycle_propagator(dev, idle_schedule(t))
        expected = expm(-1j * dense_hamiltonian(dev, np.zeros((4, 2))) * t)
        assert np.abs(u - expected).max() < 1e-10

    def test_global_rng_untouched(self):
        # on intervals with |H t|_1 this large, scipy's expm_multiply would
        # estimate norms with draws from numpy's global generator; the
        # propagators must neither draw from nor advance it
        dev = two_qubit_device(0.3, b=[[1.0, -0.5, 0.2], [0.3, 0.8, -0.1]])
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
        before = np.random.get_state()
        cycle_propagator(dev, [sched.red, sched.blue])
        cycle_propagator(dev, idle_schedule(100.0))
        evolve(dev, idle_schedule(100.0), repetitions=2, psi0=product_state(("+x", "-y")))
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])


DRAG = PulseShape.gaussian_drag()


def mid_pulse_schedules(shape=DRAG):
    """q0 drives phases pi/2 then 0.3 back to back from t = 0, q1 drives 0
    then 1.1 from t = 0.5 (tau_p = 1): each pulse edge of one qubit cuts a
    pulse of the other halfway, so intervals of equal length and equal
    pulsing qubits differ only in their offsets into the pulses."""
    q0 = Sequence((Segment.for_pulse(PI / 2, 1.0, shape),
                   Segment.for_pulse(0.3, 1.0, shape), Segment.delay(2.0)))
    q1 = Sequence((Segment.delay(0.5), Segment.for_pulse(0.0, 1.0, shape),
                   Segment.for_pulse(1.1, 1.0, shape), Segment.delay(1.5)))
    return [q0, q1]


def dense_square_mid_pulse(dev):
    """The square ``mid_pulse_schedules`` cycle as a product of dense matrix
    exponentials over its cut: per interval (start, end, q0 phase, q1 phase),
    None for a delay; a square pi pulse of length 1 drives at rate pi."""
    cut = ((0.0, 0.5, PI / 2, None), (0.5, 1.0, PI / 2, 0.0), (1.0, 1.5, 0.3, 0.0),
           (1.5, 2.0, 0.3, 1.1), (2.0, 2.5, None, 1.1), (2.5, 4.0, None, None))
    u = np.eye(4, dtype=complex)
    for lo, hi, *phases in cut:
        drives = [(0.0, 0.0) if p is None else (PI * math.cos(p), PI * math.sin(p))
                  for p in phases]
        u = expm(-1j * dense_hamiltonian(dev, np.array(drives)) * (hi - lo)) @ u
    return u


def direct_columns(dev, seqs):
    """Propagator built one column at a time; a single column uses each
    shaped key too few times to share it, so every interval runs RK4."""
    eye = np.eye(1 << dev.n, dtype=complex)
    return np.column_stack([evolve(dev, seqs, psi0=e) for e in eye.T])


def count_calls(monkeypatch, name):
    """Shapes of the state each call to ``_kernels.<name>`` receives."""
    calls = []
    original = getattr(_kernels, name)

    def counting(psi, *args):
        calls.append(psi.shape)
        return original(psi, *args)

    monkeypatch.setattr(_kernels, name, counting)
    return calls


def count_rk4_calls(monkeypatch):
    return count_calls(monkeypatch, "rk4_evolve")


def count_expm_calls(monkeypatch):
    return count_calls(monkeypatch, "expm_action")


class TestSharedPhasePropagators:
    def test_drag_catalog_matches_direct(self, monkeypatch):
        # CR-(XY4,UR12) keys both colours' pulses, each used 12 times per
        # cycle.  One random state weighs every column of U; a single column
        # is below the sharing rule, so its evolve is the direct path.
        dev = DeviceModel.default(n=4)
        sched = cr_dd("XY4", "UR12", tau_p=dev.tau_p, shape=DRAG)
        seqs = [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]
        u = cycle_propagator(dev, seqs)
        rng = np.random.default_rng(8)
        psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 /= np.linalg.norm(psi0)
        calls = count_rk4_calls(monkeypatch)
        psi = evolve(dev, seqs, psi0=psi0)
        assert calls == [(16, 1)] * 24
        assert np.abs(u @ psi0 - psi).max() < 1e-12

    def test_mid_pulse_cut(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules()
        calls = count_rk4_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        # four keys: q0 alone, q0 second half with q1 first half (twice, at
        # phases pi/2, 0 and 0.3, 1.1), q0 first half with q1 second half,
        # q1 alone
        assert calls == [(4, 4)] * 4
        assert np.abs(u - direct_columns(dev, seqs)).max() < 1e-12

    def test_transverse_field_falls_back(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.05, -0.02, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules()
        calls = count_rk4_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        # the four intervals where q0 pulses take RK4 at their real phases;
        # the one where only q1 pulses keeps its key
        assert calls == [(4, 4)] * 5
        assert np.abs(u - direct_columns(dev, seqs)).max() < 1e-12

    def test_repetitions_share_across_cycles(self, monkeypatch):
        # one column over three cycles: the key used twice per cycle reaches
        # 6 uses against a dimension of 4 and is shared; the three keys used
        # once per cycle run RK4 directly in every cycle
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules()
        u = cycle_propagator(dev, seqs)
        psi0 = product_state(("+y", "-x"))
        calls = count_rk4_calls(monkeypatch)
        psi = evolve(dev, seqs, repetitions=3, psi0=psi0)
        assert calls == [(4, 4)] + [(4, 1)] * 9
        assert np.abs(psi - np.linalg.matrix_power(u, 3) @ psi0).max() < 1e-12


class TestSharedSquarePropagators:
    def test_square_cr_cycle_propagates_each_key_once(self, monkeypatch):
        # the four red and four blue square pulses of CR-XY4 are one key per
        # colour at phase 0; every other interval is a conjugation of those
        dev = DeviceModel.default(n=4)
        sched = cr_dd("XY4", tau_p=dev.tau_p, shape=SQUARE)
        seqs = [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]
        calls = count_expm_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        assert calls == [(16, 16)] * 2
        assert np.abs(u - direct_columns(dev, seqs)).max() < 1e-12

    def test_square_mid_pulse_cut_matches_dense(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules(SQUARE)
        calls = count_expm_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        # the four keys of the shaped cut, plus the closing delay
        assert calls == [(4, 4)] * 5
        assert np.abs(u - dense_square_mid_pulse(dev)).max() < 1e-10
        assert np.abs(u - direct_columns(dev, seqs)).max() < 1e-12

    def test_square_transverse_field_stays_unkeyed(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.05, -0.02, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules(SQUARE)
        calls = count_expm_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        # the four intervals where q0 pulses run at their real phases, the
        # one where only q1 pulses keeps its key, and the closing delay
        assert calls == [(4, 4)] * 6
        assert np.abs(u - dense_square_mid_pulse(dev)).max() < 1e-10

    def test_square_repetitions_share_across_cycles(self, monkeypatch):
        # as for shaped pulses: the key used twice per cycle is shared over
        # three cycles; the other three keys and the delay run per cycle
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules(SQUARE)
        u = cycle_propagator(dev, seqs)
        psi0 = product_state(("+y", "-x"))
        calls = count_expm_calls(monkeypatch)
        psi = evolve(dev, seqs, repetitions=3, psi0=psi0)
        assert calls == [(4, 4)] + [(4, 1)] * 12
        assert np.abs(psi - np.linalg.matrix_power(u, 3) @ psi0).max() < 1e-12


def choice_survival(probs, shots, rng):
    """The categorical draw ``sample_survival`` must reproduce: normalize,
    draw ``shots`` outcomes with ``rng.choice`` and count the all-zeros one."""
    p = np.clip(np.asarray(probs, dtype=float).ravel(), 0.0, None)
    p = p / p.sum()
    draws = rng.choice(p.size, size=shots, p=p)
    return int(np.count_nonzero(draws == 0))


class TestSurvival:
    @pytest.mark.parametrize("size", [1, 2, 16, 1024])
    def test_counts_equal_categorical_draw(self, size):
        gen = np.random.default_rng(size)
        for i in range(2000):
            p = gen.uniform(size=size) ** 3
            p[gen.integers(0, size, size // 4)] = 0.0  # zero entries
            if i % 3 == 0:
                p[gen.integers(0, size)] = -1e-17  # negative rounding
            if i % 7 == 0 and size == 2:
                p = np.array([1.0 + 2e-16, -2e-16])  # (p0, 1 - p0) just past 1
            if not p.max() > 0:
                p[-1] = 1.0
            shots = int(gen.integers(1, 400))
            got = sample_survival(p, shots, shot_rng(17, size, i))
            assert got == choice_survival(p, shots, shot_rng(17, size, i)), (size, i)

    @pytest.mark.parametrize("probs, shots", [
        ([math.nan, 0.5], 10), ([0.5, math.inf], 10), ([0.0, 0.0], 10),
        ([0.0, -1e-17], 10), ([0.5, 0.5], 0), ([0.5, 0.5], -2),
    ], ids=["nan", "inf", "all_zero", "zero_and_negative", "no_shots", "negative_shots"])
    def test_refuses_unusable_input(self, probs, shots):
        with pytest.raises(ValueError):
            sample_survival(probs, shots, shot_rng(5))

    def test_zero_noise_unit_survival(self):
        dev = two_qubit_device(0.0)
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
        seqs = [sched.red, sched.blue]
        state = StateSpec("type1", ("+x", "+x"), "type1_+x")
        pt = encode_decode_survival(state, dev, seqs, repetitions=2, shots=200, seed=3)
        assert pt.p0_estimate == 1.0
        assert pt.pulses_applied == 8
        assert pt.duration_s == pytest.approx(16.0)

    def test_against_brute_force_oracle(self):
        # J-only free evolution of an encoded |++>: decode probabilities must
        # match the 4x4 matrix-exponential computation
        j, t = 0.04, 3.0
        dev = two_qubit_device(j)
        state = StateSpec("type1", ("+x", "+x"), "type1_+x")
        enc = product_state(state.poles)
        h = dense_hamiltonian(dev, np.zeros((2, 2)))
        probs_oracle = decode_probabilities(expm(-1j * h * t) @ enc, state.poles)
        psi = evolve(dev, idle_schedule(t), psi0=enc)
        probs = decode_probabilities(psi, state.poles)
        assert np.abs(probs - probs_oracle).max() < 1e-10
        rng = shot_rng(11)
        zeros = sample_survival(probs, 200000, rng)
        p_hat = zeros / 200000
        sigma = math.sqrt(probs_oracle[0] * (1 - probs_oracle[0]) / 200000)
        assert abs(p_hat - probs_oracle[0]) < 5 * sigma

    def test_binomial_concentration(self):
        # half-probability point of a Larmor precession
        delta = PI / 4
        dev = single_qubit_device((0.0, 0.0, delta))
        state = StateSpec("type1", ("+x",), "type1_+x")
        hits = 0
        for seed in range(100):
            pt = encode_decode_survival(state, dev, idle_schedule(1.0),
                                        repetitions=1, shots=1000, seed=seed)
            if 0.45 <= pt.p0_estimate <= 0.55:
                hits += 1
        assert hits >= 93

    def test_numpy_integer_seed(self):
        dev = DeviceModel.default(n=2)
        state = StateSpec("type1", ("+x", "+x"), "type1_+x")
        pts = [encode_decode_survival(state, dev, idle_schedule(1e-6), 2, 10, seed)
               for seed in (np.int64(3), 3)]
        assert pts[0] == pts[1]

    def test_seeded_determinism(self):
        dev = two_qubit_device(0.01)
        state = StateSpec("type1", ("+y", "+y"), "type1_+y")
        pts = [encode_decode_survival(state, dev, idle_schedule(4.0), 1, 500, 42)
               for _ in range(2)]
        assert pts[0] == pts[1]


class TestPrepareStates:
    def test_type1_set_n1(self):
        states = prepare_states(1, count_type2=0)
        assert [s.poles[0] for s in states] == ["+z", "-z", "+x", "-x", "+y", "-y"]
        assert all(s.kind == "type1" for s in states)

    def test_deterministic(self):
        a = prepare_states(5, seed=9)
        b = prepare_states(5, seed=9)
        assert [s.poles for s in a] == [s.poles for s in b]

    def test_seeds_differ(self):
        a = prepare_states(5, seed=1)
        b = prepare_states(5, seed=2)
        assert [s.poles for s in a if s.kind == "type2"] != \
               [s.poles for s in b if s.kind == "type2"]

    def test_deduplicated(self):
        states = prepare_states(2, seed=0)
        assert len(states) == 20
        assert len({s.poles for s in states}) == 20

    def test_small_state_space_error(self):
        with pytest.raises(ValueError, match="pole assignments"):
            prepare_states(1, count_type2=14)


class TestCrossModuleConsistency:
    def test_chi2_predicts_first_order_error_amplitude(self):
        # first-order theory: residual amplitude / J equals the quantum
        # fluctuation of sum_ab chi2[a,b] sigma_a sigma_b in the encoded state
        from crdd.control import chi2, control_trace

        seq = sim_dd("XY4", 2, 1.0, SQUARE)
        tr = control_trace(seq, 512)
        c2 = chi2(tr, tr).values
        x = np.array([[0, 1], [1, 0]], complex)
        y = np.array([[0, -1j], [1j, 0]], complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        paulis = (x, y, z)
        psi0 = product_state(("+x", "+x"))
        omega = sum(c2[a, b] * np.kron(paulis[a], paulis[b])
                    for a in range(3) for b in range(3))
        mean = np.vdot(psi0, omega @ psi0).real
        predicted = math.sqrt(np.vdot(psi0, omega @ omega @ psi0).real - mean ** 2)

        j = 1e-4
        dev = two_qubit_device(j)
        psi = evolve(dev, seq, psi0=psi0, samples_per_pulse=512)
        amp = np.linalg.norm(psi - np.vdot(psi0, psi) * psi0)
        assert amp / j == pytest.approx(predicted, rel=1e-4)
        assert predicted == pytest.approx(5.0, rel=1e-9)  # diag(1,1,6) fluctuation


class TestLocalityConsistency:
    def test_idle_first_order_matches_exact(self):
        tau_c = 8.0
        delta = 0.01 / tau_c
        dev = single_qubit_device((0.0, 0.0, delta))
        psi0 = product_state(("+x",))
        psi = evolve(dev, idle_schedule(tau_c), psi0=psi0)
        exact = 1 - abs(np.vdot(psi0, psi)) ** 2
        predicted = (delta * tau_c) ** 2  # chi1 = tau_c * I for idling
        assert abs(predicted - exact) / exact <= 0.1

    def test_staggered_xy4_residual_predicts_infidelity(self):
        # transverse static field couples through the (X,Z) chi1 residual
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
        tau_c = sched.duration
        c1 = chi1(control_trace(sched.red, 256)).values
        b_x = 0.01 / tau_c
        dev = single_qubit_device((b_x, 0.0, 0.0))
        psi0 = product_state(("+x",))
        psi = evolve(dev, sched.red, psi0=psi0, samples_per_pulse=512)
        exact = 1 - abs(np.vdot(psi0, psi)) ** 2
        # <dOmega^2> for |+x>: Z and Y components fluctuate, X does not
        omega = b_x * c1[0, :]
        predicted = omega[1] ** 2 + omega[2] ** 2
        assert exact > 1e-10
        assert abs(predicted - exact) / exact <= 0.1
