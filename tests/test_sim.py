import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from crdd import _kernels, control
from crdd.control import chi1, control_trace
from crdd.sequences import (
    PulseShape, QubitGraph, Segment, Sequence, cr_dd, envelope_amplitude, sim_dd, two_color,
)
from crdd.sim import (
    CapacityError, DeviceModel, IntegrationError, _compile_cycle, cycle_propagator,
    decode_probabilities, dense_hamiltonian, evolve,
    hamiltonian_diagonal, idle_schedule, prepare_states, product_state,
    sample_survival, shot_rng, StateSpec, survival_probability,
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


def transverse_default_device():
    """The default 4-qubit device plus seeded static X/Y fields on every
    qubit, each within +/- 0.1 J."""
    dev = DeviceModel.default(n=4)
    b = dev.b.copy()
    b[:, :2] = np.random.default_rng(6).uniform(-0.1, 0.1, (4, 2)) * dev.zz[0]
    return DeviceModel(dev.graph, dev.zz, b, dev.tau_p)


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
        seq = sim_dd("XY4", 2, 1.0, IDEAL)
        tau_c = 8.0  # four unit pulse slots and four unit delays
        assert seq.duration == tau_c
        dev = two_qubit_device(j_tau_c / tau_c)
        psi0 = product_state(("+x", "+x"))
        psi = evolve(dev, seq, psi0=psi0)
        infidelity = 1 - abs(np.vdot(psi0, psi)) ** 2
        assert infidelity == pytest.approx(math.sin(j_tau_c) ** 2, rel=1e-8)

    def test_cr_suppresses_by_100x(self):
        # both cycles last 8 unit slots, so one device gives both J tau_c
        j_tau_c = 0.02
        psi0 = product_state(("+x", "+x"))
        dev = two_qubit_device(j_tau_c / 8.0)
        psi = evolve(dev, sim_dd("XY4", 2, 1.0, IDEAL), psi0=psi0)
        inf_sim = 1 - abs(np.vdot(psi0, psi)) ** 2
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
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

    def test_non_bipartite_device(self):
        # evolve reads no coloring, so a triangle runs: one SIM-XY4-2 cycle
        # of square pulses against a product of dense matrix exponentials
        rng = np.random.default_rng(3)
        dev = DeviceModel(QubitGraph(3, ((0, 1), (1, 2), (0, 2))), [0.03, 0.02, 0.01],
                          rng.normal(scale=0.02, size=(3, 3)), 1.0)
        seq = sim_dd("XY4", 2, 1.0, SQUARE)
        want = np.eye(8, dtype=complex)
        for s in seq.segments:
            rate = 0.0 if s.kind == "delay" else PI / s.duration
            phase = 0.0 if s.kind == "delay" else s.pulse.phase
            drives = np.tile([rate * math.cos(phase), rate * math.sin(phase)], (3, 1))
            want = expm(-1j * dense_hamiltonian(dev, drives) * s.duration) @ want
        assert np.abs(cycle_propagator(dev, seq) - want).max() <= 1e-10
        psi0 = product_state(("+x", "-y", "+z"))
        assert np.abs(evolve(dev, idle_schedule(3.0), psi0=psi0)
                      - expm(-3j * dense_hamiltonian(dev, np.zeros((3, 2)))) @ psi0).max() <= 1e-10

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
        dev = transverse_default_device()
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


def lab_frame_rk4(dev, seqs, steps_per_pulse=1024):
    """The cycle's propagator by RK4 in the lab frame, on a step grid of its
    own: the union of the schedules' segment edges, an interval in which m
    qubits pulse in steps of at most ``tau_p / (m steps_per_pulse)`` (the
    drive amplitudes add in the worst eigenvalue), a delay-only one in 64
    steps.  Each interval's rates hold every pulse at its real phase plus
    the unturned static X/Y field; nothing is keyed, conjugated or
    factored."""
    diag = hamiltonian_diagonal(dev)
    starts = [np.cumsum([0.0] + [s.duration for s in seq.segments]) for seq in seqs]
    edges = np.unique(np.concatenate(starts))
    u = np.eye(1 << dev.n, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        ks = [np.searchsorted(st, (lo + hi) / 2) - 1 for st in starts]
        segs = [seq.segments[k] for seq, k in zip(seqs, ks)]
        m = sum(s.kind == "pulse" for s in segs)
        nst = math.ceil((hi - lo) / dev.tau_p * m * steps_per_pulse) if m else 64
        h = np.full(nst, (hi - lo) / nst)
        offs = lo + np.arange(nst) * h
        times = np.stack([offs, offs + h / 2, offs + h], axis=1)
        ax = np.tile(dev.b[:, 0], times.shape + (1,))
        ay = np.tile(dev.b[:, 1], times.shape + (1,))
        for q, (s, k) in enumerate(zip(segs, ks)):
            if s.kind == "pulse":
                local = np.clip(times - starts[q][k], 0.0, s.duration)
                wi, wq = envelope_amplitude(s.pulse.shape, s.pulse.flip_angle, s.duration,
                                            local.ravel())
                c, sn = math.cos(s.pulse.phase), math.sin(s.pulse.phase)
                ax[..., q] += 0.5 * (wi * c - wq * sn).reshape(times.shape)
                ay[..., q] += 0.5 * (wi * sn + wq * c).reshape(times.shape)
        _kernels.rk4_evolve(u, ax, ay, diag, h, 1)
    return u


def dense_square_cycle(dev, seqs):
    """A square cycle as a product of dense matrix exponentials over the
    union of its segment edges, each pulse at its real phase."""
    starts = [np.cumsum([0.0] + [s.duration for s in seq.segments]) for seq in seqs]
    edges = np.unique(np.concatenate(starts))
    u = np.eye(1 << dev.n, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        drives = np.zeros((dev.n, 2))
        for q, seq in enumerate(seqs):
            s = seq.segments[np.searchsorted(starts[q], (lo + hi) / 2) - 1]
            if s.kind == "pulse":
                rate = s.pulse.flip_angle / s.duration
                drives[q] = rate * math.cos(s.pulse.phase), rate * math.sin(s.pulse.phase)
        u = expm(-1j * dense_hamiltonian(dev, drives) * (hi - lo)) @ u
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
        # CR-(XY4,UR12) never drives two adjacent qubits together and the
        # default device has no static X/Y field, so every pulsed piece is
        # factored and no RK4 runs.  One random state weighs every column of
        # U against the one-column evolve.
        dev = DeviceModel.default(n=4)
        sched = cr_dd("XY4", "UR12", tau_p=dev.tau_p, shape=DRAG)
        seqs = [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]
        u = cycle_propagator(dev, seqs)
        rng = np.random.default_rng(8)
        psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 /= np.linalg.norm(psi0)
        calls = count_rk4_calls(monkeypatch)
        psi = evolve(dev, seqs, psi0=psi0)
        assert calls == []
        assert np.abs(u @ psi0 - psi).max() < 1e-12

    def test_mid_pulse_cut(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules()
        calls = count_rk4_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        # two RK4 keys where both qubits pulse: q0 second half with q1 first
        # half (twice, at phases pi/2, 0 and 0.3, 1.1), q0 first half with q1
        # second half; the pieces where one qubit pulses alone are factored
        assert calls == [(4, 4)] * 2
        assert np.abs(u - direct_columns(dev, seqs)).max() < 1e-12

    def test_transverse_field_falls_back(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.05, -0.02, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules()
        calls = count_rk4_calls(monkeypatch)
        # fine enough that both the cut's RK4 and the oracle's own grid sit
        # well inside the bound
        u = cycle_propagator(dev, seqs, samples_per_pulse=2048)
        # q0's field, turned into its pulse frame, joins the key: the two
        # intervals of q0's second half with q1's first half turn it by pi/2
        # and by 0.3, so they no longer share.  Where q1 pulses alone, its
        # neighbour q0 carries a transverse field, so that piece falls back
        # to RK4 too; only q0 alone is factored.  Four keys
        assert calls == [(4, 4)] * 4
        assert np.abs(u - lab_frame_rk4(dev, seqs, 4096)).max() < 1e-12

    def test_repetitions_share_across_cycles(self, monkeypatch):
        # one column over three cycles: the RK4 key used twice per cycle
        # reaches 6 uses against a dimension of 4 and is shared; the RK4 key
        # used once per cycle runs directly in every cycle, and the pieces
        # where one qubit pulses alone are factored
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules()
        u = cycle_propagator(dev, seqs)
        psi0 = product_state(("+y", "-x"))
        calls = count_rk4_calls(monkeypatch)
        psi = evolve(dev, seqs, repetitions=3, psi0=psi0)
        assert calls == [(4, 4)] + [(4, 1)] * 3
        assert np.abs(psi - np.linalg.matrix_power(u, 3) @ psi0).max() < 1e-12


def random_device(graph, seed, transverse=(), tau_p=5.69e-8, j_tau_p=5e-3):
    """``graph`` two-coloured with seeded random couplings, J tau_p uniform in
    [0.5, 1.5] times ``j_tau_p``, static Z fields within +/- 0.2 J, and
    static X/Y fields within +/- 0.1 J on the ``transverse`` qubits."""
    rng = np.random.default_rng(seed)
    j = j_tau_p / tau_p
    b = np.zeros((graph.n, 3))
    b[:, 2] = rng.uniform(-0.2, 0.2, graph.n) * j
    b[list(transverse), :2] = rng.uniform(-0.1, 0.1, (len(transverse), 2)) * j
    return DeviceModel(two_color(graph), rng.uniform(0.5, 1.5, len(graph.edges)) * j, b, tau_p)


def colour_schedules(dev, sched):
    return [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]


def span_kinds(dev, seqs):
    return Counter(span[0] for span in _compile_cycle(dev, seqs, 256, hamiltonian_diagonal(dev)))


RING = QubitGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


class TestFactoredPropagation:
    # The oracle at 1024 steps per pulse is within 4e-13 of its own grid at
    # 2048 on these cycles, and the factored CF4 at 256 within 2e-13 of it.
    # The padding modes alternate across bases, both on XY4 and on
    # (XY4,UR12); RGA64c is left out for time (about 1 s per oracle cycle).
    @pytest.mark.parametrize("graph,red,blue,mode", [
        (QubitGraph.path(3), "XY4", None, "symmetric"),
        (QubitGraph.path(3), "XY4", None, "asymmetric"),
        (QubitGraph.path(3), "EDD", None, "symmetric"),
        (QubitGraph.path(3), "KDD", None, "asymmetric"),
        (QubitGraph.path(3), "UR10", None, "symmetric"),
        (QubitGraph.path(3), "UR12", None, "asymmetric"),
        (QubitGraph.path(3), "XY4", "UR12", "symmetric"),
        (QubitGraph.path(3), "XY4", "UR12", "asymmetric"),
        (RING, "XY4", None, "asymmetric")], ids=lambda x: getattr(x, "n", x))
    def test_drag_catalog_matches_lab_frame(self, monkeypatch, graph, red, blue, mode):
        dev = random_device(graph, seed=11)
        seqs = colour_schedules(dev, cr_dd(red, blue, tau_p=dev.tau_p, shape=DRAG, k=2,
                                           mode=mode))
        calls = count_rk4_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        assert calls == []
        monkeypatch.undo()
        assert np.abs(u - lab_frame_rk4(dev, seqs)).max() < 1e-12

    def test_star_centre_sees_eight_classes(self):
        # the centre's Z rate takes one value per bit pattern of its three
        # neighbours; each leaf sees two
        dev = random_device(QubitGraph(4, ((0, 1), (0, 2), (0, 3))), seed=12)
        seqs = colour_schedules(dev, cr_dd("XY4", tau_p=dev.tau_p, shape=DRAG))
        spans = _compile_cycle(dev, seqs, 256, hamiltonian_diagonal(dev))
        sizes = {q: len(turns) for span in spans if span[0] == "factored"
                 for q, _, turns in span[4]}
        assert sizes == {0: 8, 1: 2, 2: 2, 3: 2}
        assert np.abs(cycle_propagator(dev, seqs) - lab_frame_rk4(dev, seqs)).max() < 1e-12

    def test_transverse_field_on_a_pulsers_neighbour_falls_back(self, monkeypatch):
        # qubit 1's X/Y field joins P whenever its neighbours 0 and 2 pulse,
        # so those four pieces (one key) run RK4; where qubit 1 pulses, its
        # neighbours carry no transverse field and the pieces are factored
        dev = random_device(QubitGraph.path(3), seed=13, transverse=(1,))
        seqs = colour_schedules(dev, cr_dd("XY4", tau_p=dev.tau_p, shape=DRAG))
        assert span_kinds(dev, seqs) == {"rk4": 4, "factored": 4}
        calls = count_rk4_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        assert calls == [(8, 8)]
        monkeypatch.undo()
        assert np.abs(u - lab_frame_rk4(dev, seqs)).max() < 1e-12

    @pytest.mark.parametrize("graph,transverse,third", [
        (QubitGraph.path(3), (), SQUARE), (QubitGraph(3, ((0, 1),)), (2,), None)],
        ids=["square_pulser", "fielded_idler"])
    def test_constant_rate_members_turn_in_one_step(self, graph, transverse, third):
        # a DRAG pulse on qubit 0 beside a square pulse on qubit 2, or beside
        # an idle qubit 2 with a transverse field: qubit 2 is in P at a
        # constant rate, so its turn is one exact CF4 step
        dev = random_device(graph, seed=14, transverse=transverse)
        tp = dev.tau_p
        idle = Sequence((Segment.delay(2 * tp),))
        seqs = [Sequence((Segment.for_pulse(0.4, tp, DRAG), Segment.delay(tp))), idle,
                Sequence((Segment.for_pulse(1.3, tp, third), Segment.delay(tp))) if third
                else idle]
        assert span_kinds(dev, seqs)["factored"] == 1
        u = cycle_propagator(dev, seqs, samples_per_pulse=1024)
        assert np.abs(u - lab_frame_rk4(dev, seqs, 2048)).max() < 1e-12

    @pytest.mark.parametrize("blue", [None, "UR12"])
    def test_unitarity(self, blue):
        dev = DeviceModel.default(n=4)
        seqs = colour_schedules(dev, cr_dd("XY4", blue, tau_p=dev.tau_p, shape=DRAG))
        assert span_kinds(dev, seqs)["rk4"] == 0
        u = cycle_propagator(dev, seqs)
        assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-13


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
        # a square rate does not depend on the offset, so the three intervals
        # where both qubits pulse share a key: three keys plus the closing delay
        assert calls == [(4, 4)] * 4
        assert np.abs(u - dense_square_cycle(dev, seqs)).max() < 1e-10
        assert np.abs(u - direct_columns(dev, seqs)).max() < 1e-12

    def test_square_transverse_field_stays_unkeyed(self, monkeypatch):
        dev = two_qubit_device(0.02, b=[[0.05, -0.02, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules(SQUARE)
        calls = count_expm_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        # q0's turned field joins the key, so only the two intervals where
        # both pulse at q0 phase 0.3 share: four keys and the closing delay
        assert calls == [(4, 4)] * 5
        assert np.abs(u - dense_square_cycle(dev, seqs)).max() < 1e-10

    def test_square_cr_cycle_with_transverse_fields(self, monkeypatch):
        # a static X/Y field on every qubit: each colour's pulses at phase 0
        # and at pi/2 are two keys, four for the eight pulsed intervals
        dev = transverse_default_device()
        sched = cr_dd("XY4", tau_p=dev.tau_p, shape=SQUARE)
        seqs = [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]
        calls = count_expm_calls(monkeypatch)
        u = cycle_propagator(dev, seqs)
        assert calls == [(16, 16)] * 4
        assert np.abs(u - dense_square_cycle(dev, seqs)).max() < 1e-10

    def test_square_repetitions_share_across_cycles(self, monkeypatch):
        # the key used three times per cycle (both qubits pulsing) is shared
        # over three cycles; the other two keys and the delay run per cycle
        dev = two_qubit_device(0.02, b=[[0.0, 0.0, 0.01], [0.0, 0.0, -0.03]])
        seqs = mid_pulse_schedules(SQUARE)
        u = cycle_propagator(dev, seqs)
        psi0 = product_state(("+y", "-x"))
        calls = count_expm_calls(monkeypatch)
        psi = evolve(dev, seqs, repetitions=3, psi0=psi0)
        assert calls == [(4, 4)] + [(4, 1)] * 9
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
        enc = product_state(state.poles)
        psi = evolve(dev, seqs, repetitions=2, psi0=enc)
        p0 = survival_probability(enc, psi)
        zeros = sample_survival((p0, 1.0 - p0), 200, shot_rng(3))
        assert zeros / 200 == 1.0
        assert 2 * sched.red.pulse_count == 8
        assert 2 * sched.red.duration == pytest.approx(16.0)

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
        enc = product_state(state.poles)
        p0 = survival_probability(enc, evolve(dev, idle_schedule(1.0), psi0=enc))
        hits = 0
        for seed in range(100):
            zeros = sample_survival((p0, 1.0 - p0), 1000, shot_rng(seed))
            if 0.45 <= zeros / 1000 <= 0.55:
                hits += 1
        assert hits >= 93


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

    @pytest.mark.parametrize("counts", [
        dict(count_type1=-1), dict(count_type1=7), dict(count_type1=2.0),
        dict(count_type1=True), dict(count_type2=1.5), dict(count_type2=-1),
        dict(count_type2=False),
    ], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_refuses_counts_that_are_not_integers_in_range(self, counts):
        # slicing and the draw loop would read -1 as 5 states, 7 as 6 and 1.5 as 2
        with pytest.raises(ValueError, match="count_type"):
            prepare_states(3, **counts)

    def test_counts_at_their_bounds(self):
        assert len(prepare_states(3, count_type1=0, count_type2=0)) == 0
        assert len(prepare_states(3, count_type1=6, count_type2=0)) == 6


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
