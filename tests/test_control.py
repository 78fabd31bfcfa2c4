import math
from collections import Counter

import numpy as np
import pytest

from crdd import _kernels
from crdd.control import (
    RELATIONS, ControlTrace, GridMismatchError, IntegrationError, SymmetryReport, TimeGrid,
    _adjoint_from_unitaries, bang_bang_trace, chi1, chi2, classify_all,
    classify_symmetry, control_trace, paired_traces, propagate, verify_first_order,
)
from crdd.sequences import (
    ColoredSchedule, PulseShape, PulseSpec, Segment, Sequence, _common_cut, cr_dd,
    envelope_amplitude, named_phases, sim_dd, sim_variant,
)

PI = math.pi
SQUARE = PulseShape.square()
DRAG = PulseShape.gaussian_drag()
GAUSS = PulseShape.gaussian()
IDEAL = PulseShape.ideal()

X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI = (X, np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex))


def ideal_xy4(tau_d, symmetric=False):
    segs = []
    if symmetric:
        segs.append(Segment.delay(tau_d / 2))
        for i, ph in enumerate(named_phases("XY4")):
            if i:
                segs.append(Segment.delay(tau_d))
            segs.append(Segment.for_pulse(ph, 0.0, IDEAL))
        segs.append(Segment.delay(tau_d / 2))
    else:
        for ph in named_phases("XY4"):
            segs.append(Segment.delay(tau_d))
            segs.append(Segment.for_pulse(ph, 0.0, IDEAL))
    return Sequence(tuple(segs), name="ideal-xy4")


class TestPropagate:
    def test_pure_delay_is_identity(self):
        grid, u = propagate(Sequence((Segment.delay(3.0),)), 64)
        assert np.abs(u - np.eye(2)).max() < 1e-15
        assert grid.times[0] == 0.0 and grid.times[-1] == 3.0

    def test_single_ideal_x_pulse(self):
        seq = Sequence((Segment.delay(1.0), Segment.for_pulse(0.0, 0.0, IDEAL)))
        _, u = propagate(seq, 32)
        assert np.abs(u[-1] - (-1j) * X).max() < 1e-14

    def test_square_pulse_midpoint_closed_form(self):
        seq = Sequence((Segment.for_pulse(0.0, 1.0, SQUARE),))
        grid, u = propagate(seq, 256)
        mid = np.argmin(np.abs(grid.times - 0.5))
        expected = math.cos(PI / 4) * np.eye(2) - 1j * math.sin(PI / 4) * X
        assert np.abs(u[mid] - expected).max() < 1e-10

    def test_unitarity_all_nodes(self):
        sched = cr_dd("KDD", tau_p=1.0, shape=DRAG)
        _, u = propagate(sched.red, 64)
        defect = np.abs(np.einsum("nji,njk->nik", u.conj(), u) - np.eye(2)).max()
        assert defect < 1e-10

    def test_rejects_coarse_sampling(self):
        with pytest.raises(ValueError):
            propagate(Sequence((Segment.delay(1.0),)), 8)

    def test_nan_node_raises(self, monkeypatch):
        chain = _kernels.su2_chain

        def nan_chain(cx, cy, dx, dy, out, z=0.0):
            chain(cx, cy, dx, dy, out, z)
            out[len(out) // 2] = np.nan

        monkeypatch.setattr(_kernels, "su2_chain", nan_chain)
        # a square pulse is a closed-form turn, so the chain runs only for a shaped one
        with pytest.raises(IntegrationError, match="nan"):
            propagate(Sequence((Segment.for_pulse(0.0, 1.0, DRAG),)), 32)

    def test_ideal_pulse_with_non_pi_flip_angle(self):
        seq = Sequence((Segment.delay(1.0),
                        Segment("pulse", 0.0,
                                PulseSpec(0.0, 0.0, IDEAL, flip_angle=PI / 2))))
        _, u = propagate(seq, 32)
        expected = math.cos(PI / 4) * np.eye(2) - 1j * math.sin(PI / 4) * X
        assert np.abs(u[-1] - expected).max() < 1e-14
        tr = bang_bang_trace(seq, 32)
        assert tr.R[-1][2, 2] == pytest.approx(0.0, abs=1e-12)  # Z tipped to -Y
        # a non-pi turn is not its own inverse: the sense of rotation shows
        assert np.abs(tr.R - control_trace(seq, 32).R).max() < 1e-14


class TestControlTrace:
    @pytest.mark.parametrize("scale", [1.0, 1 - 1e-9, 1 + 1e-9])
    def test_closed_form_matches_trace_formula(self, scale):
        q = np.random.default_rng(7).normal(size=(1000, 4))
        q *= scale / np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        u = (w[:, None, None] * np.eye(2)
             - 1j * np.einsum("na,aij->nij", np.stack((x, y, z), axis=1), PAULI))
        ud = u.conj().transpose(0, 2, 1)
        oracle = np.empty((len(u), 3, 3))
        for m in range(3):
            for a in range(3):
                oracle[:, m, a] = np.einsum("nij,ji->n", ud @ PAULI[m] @ u, PAULI[a]).real / 2
        assert np.abs(_adjoint_from_unitaries(u) - oracle).max() <= 1e-15

    def test_uniform_view_rejects_jump_at_duplicate_node(self):
        # nodes 0..8 with duplicates after nodes 2, 4 and 6; the trace is
        # continuous across the first two and jumps at the last one
        t = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 6.0, 7.0, 8.0])
        grid = TimeGrid(t, ((0, 2), (3, 5), (6, 8), (9, 11)), 8.0)
        R = np.repeat(np.eye(3)[None], len(t), axis=0)
        assert np.array_equal(ControlTrace(grid, R).uniform_view()[0], np.arange(9.0))
        R[9:] = np.diag([1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match="trace is discontinuous"):
            ControlTrace(grid, R).uniform_view()

    def test_pure_delay_identity_matrix(self):
        tr = control_trace(Sequence((Segment.delay(2.0),)), 64)
        assert np.abs(tr.R - np.eye(3)).max() < 1e-14

    def test_so3_nodes(self):
        tr = control_trace(cr_dd("XY4", tau_p=1.0, shape=DRAG).red, 64)
        prod = np.einsum("nij,nkj->nik", tr.R, tr.R)
        assert np.abs(prod - np.eye(3)).max() < 1e-8
        dets = np.linalg.det(tr.R)
        assert np.abs(dets - 1).max() < 1e-8

    def test_initial_node_identity_and_cyclic(self):
        tr = control_trace(sim_dd("XY4", 2, 1.0, SQUARE), 64)
        assert np.abs(tr.R[0] - np.eye(3)).max() < 1e-14
        assert np.abs(tr.R[-1] - np.eye(3)).max() < 1e-9

    def test_ideal_xy4_after_first_x(self):
        tr = bang_bang_trace(ideal_xy4(1.0), 32)
        idx = np.searchsorted(tr.grid.times, 1.0, side="right")
        r = tr.R[idx + 1]
        assert r[2, 2] == pytest.approx(-1.0)
        assert r[1, 1] == pytest.approx(-1.0)
        assert r[0, 0] == pytest.approx(+1.0)

    def test_square_pulse_zz_is_cos_theta(self):
        seq = Sequence((Segment.for_pulse(0.0, 1.0, SQUARE),))
        tr = control_trace(seq, 128)
        t, r = tr.uniform_view()
        theta = PI * t  # constant-rate square pulse
        assert np.abs(r[:, 2, 2] - np.cos(theta)).max() < 1e-10


class TestPartners:
    @pytest.mark.parametrize("shape, k, mode", [(SQUARE, 1, "symmetric"),
                                                (DRAG, 2, "asymmetric"),
                                                (IDEAL, 2, "asymmetric")])
    def test_piece_edges_are_the_union_of_both_colors_edges(self, shape, k, mode):
        sched = cr_dd("XY4", tau_p=1.0, shape=shape, k=k, mode=mode)
        edges = set()
        for seq in (sched.red, sched.blue):
            t = 0.0
            for seg in seq.segments:
                if shape.is_ideal and seg.kind == "pulse":
                    edges.add(t + seg.duration / 2)  # the turn at the slot's midpoint
                t += seg.duration
                edges.add(t)
        for trace in paired_traces(sched, 32, ideal=shape.is_ideal):
            times, pieces = trace.grid.times, trace.grid.pieces
            got = [times[i0] for i0, _ in pieces] + [times[pieces[-1][1]]]
            assert np.allclose(got, sorted(edges | {0.0}), rtol=0.0, atol=1e-12)

    def test_partner_of_another_duration_refused(self):
        seq = sim_dd("XY4", 2, 1.0, SQUARE)
        with pytest.raises(ValueError, match="durations differ"):
            control_trace(seq, 32, partners=(sim_dd("XY4", 3, 1.0, SQUARE),))

    def test_ideal_pulses_at_cycle_start_and_end(self):
        x = Segment.for_pulse(0.0, 0.0, IDEAL)
        seq = Sequence((x, Segment.delay(1.0), x, Segment.delay(1.0), x))
        tr = bang_bang_trace(seq, 32)
        flip = np.diag([1.0, -1.0, -1.0])
        assert np.allclose(tr.R[0], np.eye(3))
        assert np.allclose(tr.R[1], flip)
        assert np.allclose(tr.R[-2], np.eye(3))
        assert np.allclose(tr.R[-1], flip)
        assert np.allclose(control_trace(seq, 32).R, tr.R, atol=1e-12)

    def test_traces_and_error_matrices_compare_by_identity(self):
        tr = control_trace(sim_dd("XY4", 2, 1.0, SQUARE), 32)
        assert tr == tr and tr != control_trace(sim_dd("XY4", 2, 1.0, SQUARE), 32)
        c = chi1(tr)
        assert c == c and c != chi1(tr)
        assert len({tr, c}) == 2


class TestChi1:
    def test_pure_delay(self):
        tr = control_trace(Sequence((Segment.delay(2.5),)), 64)
        assert np.abs(chi1(tr).values - 2.5 * np.eye(3)).max() < 1e-12

    def test_ideal_xy4_first_order_suppression(self):
        tr = bang_bang_trace(ideal_xy4(1.0), 32)
        assert chi1(tr).max_abs() <= 1e-12 * tr.duration

    @pytest.mark.parametrize("shape", [SQUARE, DRAG])
    def test_cr_xy4_residual_pattern(self, shape):
        tr, tb = paired_traces(cr_dd("XY4", tau_p=1.0, shape=shape), 256)
        for trace in (tr, tb):
            c = chi1(trace)
            for m, a in np.ndindex(3, 3):
                if (m, a) in ((0, 2), (1, 2)):
                    continue
                assert abs(c.values[m, a]) <= 1e-8 * trace.duration

    @pytest.mark.parametrize("shape", [SQUARE, DRAG])
    def test_cr_ur10_residual_pattern(self, shape):
        tr, tb = paired_traces(cr_dd("UR10", tau_p=1.0, shape=shape), 256)
        allowed = {(0, 0), (0, 1), (1, 0), (1, 1)}
        for trace in (tr, tb):
            c = chi1(trace)
            for m, a in np.ndindex(3, 3):
                if (m, a) in allowed:
                    continue
                assert abs(c.values[m, a]) <= 1e-8 * trace.duration


class TestChi2:
    def test_cr_xy4_cancellation(self):
        for shape in (SQUARE, DRAG):
            tr, tb = paired_traces(cr_dd("XY4", tau_p=1.0, shape=shape), 256)
            assert chi2(tr, tb).max_abs() <= 1e-8 * tr.duration

    def test_sim_xy4_2_square_closed_form(self):
        tr = control_trace(sim_dd("XY4", 2, 1.0, SQUARE), 256)
        c = chi2(tr, tr)
        # product of Z rows is 1 on delays and cos^2 during simultaneous pulses
        assert c.entry("Z", "Z") == pytest.approx(6.0, abs=1e-6 * 8.0)
        assert abs(c.entry("X", "Y")) <= 1e-8 * 8.0

    def test_trailing_instantaneous_pulse_outside_quadrature(self):
        # a pulse at t = T adds a node past the last piece to one trace only
        pulsed = control_trace(Sequence((Segment.delay(1.0),
                                         Segment.for_pulse(0.0, 0.0, IDEAL))), 16)
        idle = control_trace(Sequence((Segment.delay(1.0),)), 16)
        assert len(pulsed.grid.times) == len(idle.grid.times) + 1
        assert chi2(pulsed, idle).entry("Z", "Z") == pytest.approx(1.0, abs=1e-15)

    def test_grid_mismatch(self):
        tr = control_trace(sim_dd("XY4", 2, 1.0, SQUARE), 64)
        tb = control_trace(sim_dd("XY4", 2, 1.0, SQUARE), 128)
        with pytest.raises(GridMismatchError):
            chi2(tr, tb)

    def test_entries_bounded_by_duration(self):
        from crdd.control import ErrorMatrix
        with pytest.raises(ValueError):
            ErrorMatrix("one_local", np.full((3, 3), 2.0), 1.0)


class TestVerify:
    def test_cr_kdd_passes(self):
        rep = verify_first_order(cr_dd("KDD", tau_p=1.0, shape=DRAG), 128)
        assert rep.passed

    def test_heterogeneous_passes(self):
        rep = verify_first_order(cr_dd("XY4", "UR12", tau_p=1.0, shape=DRAG), 128)
        assert rep.passed

    def test_sim_xy4_2_fails_xx_zz(self):
        rep = verify_first_order(sim_dd("XY4", 2, 1.0, SQUARE), 128)
        assert not rep.passed
        failed = {(a, b) for _, a, b, _, ok in rep.two_local_failures()}
        assert {("X", "X"), ("Z", "Z")} <= failed

    def test_rows_schema(self):
        rep = verify_first_order(cr_dd("XY4", tau_p=1.0, shape=SQUARE), 64)
        kinds = {r[0] for r in rep.rows}
        assert kinds == {"one_local_red", "one_local_blue", "two_local"}
        assert len(rep.rows) == 27

    @pytest.mark.parametrize("name", ["XY4", "EDD", "KDD", "UR10", "UR12", "RGA64c"])
    def test_ideal_cr_numeric_matches_bang_bang(self, name):
        # each color turns at its slots' midpoints, instants the other color
        # lacks: they must not shift its pieces
        sched = cr_dd(name, tau_p=1.0, shape=IDEAL)
        tr, tb = paired_traces(sched, 32)
        assert tr.grid.pieces == tb.grid.pieces
        numeric = chi2(tr, tb).values
        bang = chi2(*paired_traces(sched, 32, ideal=True)).values
        assert np.abs(numeric - bang).max() <= 1e-12 * sched.duration
        assert len(verify_first_order(sched, 32).rows) == 27

    @pytest.mark.parametrize("k, mode", [(1, "symmetric"), (3, "symmetric"), (2, "asymmetric")])
    @pytest.mark.parametrize("name", ["XY4", "EDD", "KDD", "UR10", "UR12", "RGA64c"])
    def test_ideal_cr_schedules_verify(self, name, k, mode):
        # an ideal pulse turns mid-slot, so the stagger keeps the colors apart
        sched = cr_dd(name, tau_p=5.69e-8, shape=IDEAL, k=k, mode=mode)
        rep = verify_first_order(sched, 32, tol=1e-12)
        assert rep.passed and rep.two_local_max_relative <= 1e-12

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_first_order(cr_dd("XY4", tau_p=1.0, shape=SQUARE), 64, tol=0.0)


def trace_chi(obj, samples):
    """chi1 per color and chi2 on control traces: the reference path."""
    if isinstance(obj, ColoredSchedule):
        tr, tb = paired_traces(obj, samples)
        mats = [chi1(tr), chi1(tb), chi2(tr, tb)]
    else:
        tr = control_trace(obj, samples)
        mats = [chi1(tr), chi2(tr, tr)]
    return [m.values for m in mats]


def report_chi(rep):
    kinds = list(dict.fromkeys(r[0] for r in rep.rows))
    return [np.array([[r[3] for r in rep.rows if r[0] == k]]).reshape(3, 3) for k in kinds]


class TestSegmentChi:
    """verify_first_order sums chi by segments; it must give the trace values."""

    def assert_matches_traces(self, obj, samples=64):
        got = report_chi(verify_first_order(obj, samples))
        want = trace_chi(obj, samples)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * obj.duration

    @pytest.mark.parametrize("shape", [SQUARE, GAUSS, DRAG, IDEAL], ids=lambda s: s.kind)
    @pytest.mark.parametrize("k, mode", [(1, "symmetric"), (3, "symmetric"), (2, "asymmetric")])
    @pytest.mark.parametrize("name", ["XY4", "EDD", "KDD", "UR10", "UR12", "RGA64c"])
    def test_catalog(self, name, k, mode, shape):
        # ideal CR schedules fail first-order verification; the segment path
        # reproduces the failing trace values too
        self.assert_matches_traces(cr_dd(name, tau_p=5.69e-8, shape=shape, k=k, mode=mode))

    @pytest.mark.parametrize("shape", [SQUARE, DRAG, IDEAL], ids=lambda s: s.kind)
    def test_heterogeneous(self, shape):
        self.assert_matches_traces(cr_dd("XY4", "UR12", tau_p=1.0, shape=shape, k=2))

    @pytest.mark.parametrize("shape", [SQUARE, GAUSS, DRAG, IDEAL], ids=lambda s: s.kind)
    def test_bare_sequence(self, shape):
        self.assert_matches_traces(sim_dd("XY4", 2, 1.0, shape))

    @pytest.mark.parametrize("shape", [SQUARE, GAUSS, DRAG], ids=lambda s: s.kind)
    def test_sim_pair_overlapping_pulses(self, shape):
        phases = np.random.default_rng(11).uniform(0.0, 2 * PI, 4)
        sched = ColoredSchedule(sim_dd("XY4", 2, 1.0, shape),
                                sim_variant(tuple(phases), 1.0, 1.0, shape))
        self.assert_matches_traces(sched)

    @pytest.mark.parametrize("partner", [SQUARE, GAUSS, DRAG], ids=lambda s: s.kind)
    def test_partner_edge_cuts_shaped_pulse(self, partner):
        # the blue pulse starts inside the red DRAG pulse and ends after it
        red = Sequence((Segment.delay(0.5), Segment.for_pulse(0.3, 1.0, DRAG),
                        Segment.delay(1.5), Segment.for_pulse(2.0, 1.0, DRAG)))
        blue = Sequence((Segment.delay(0.8), Segment.for_pulse(1.1, 1.0, partner),
                         Segment.delay(1.7), Segment.for_pulse(-0.4, 0.5, partner)))
        self.assert_matches_traces(ColoredSchedule(red, blue), 128)

    def test_instantaneous_pulses_at_both_ends(self):
        x = Segment.for_pulse(0.0, 0.0, IDEAL)
        y = Segment("pulse", 0.0, PulseSpec(PI / 2, 0.0, IDEAL, flip_angle=PI / 2))
        red = Sequence((x, Segment.delay(1.0), y, Segment.for_pulse(0.7, 1.0, SQUARE), x))
        blue = Sequence((y, Segment.delay(0.5), y, Segment.delay(1.5), x, x))
        self.assert_matches_traces(ColoredSchedule(red, blue), 32)

    def test_builds_no_trace(self, monkeypatch):
        import crdd.control as control

        def refuse(*args, **kwargs):
            raise AssertionError("verification built a trace")

        monkeypatch.setattr(control, "propagate", refuse)
        monkeypatch.setattr(control, "control_trace", refuse)
        assert verify_first_order(cr_dd("KDD", tau_p=1.0, shape=DRAG), 64).passed

    def test_nan_node_raises(self, monkeypatch):
        chain = _kernels.su2_chain

        def nan_chain(cx, cy, dx, dy, out, z=0.0):
            chain(cx, cy, dx, dy, out, z)
            out[len(out) // 2] = np.nan

        monkeypatch.setattr(_kernels, "su2_chain", nan_chain)
        with pytest.raises(IntegrationError, match="nan"):
            verify_first_order(cr_dd("XY4", tau_p=1.0, shape=DRAG), 32)

    def test_rejects_coarse_sampling(self):
        with pytest.raises(ValueError, match="samples_per_pulse"):
            verify_first_order(cr_dd("XY4", tau_p=1.0, shape=SQUARE), 8)


class TestSymmetry:
    def test_report_keeps_one_array(self):
        from crdd.control import RELATIONS, classify_all
        rep = classify_all(control_trace(cr_dd("XY4", tau_p=1.0, shape=SQUARE).red, 64))
        assert rep.residuals.shape == (3, 3, len(RELATIONS))
        comp = rep.components[("Z", "X")]
        assert comp.residuals == dict(zip(RELATIONS, rep.residuals[2, 0].tolist()))
        assert all(type(r) is float for r in comp.residuals.values())

    def test_cr_xy4_displacement_classes(self):
        tr, _ = paired_traces(cr_dd("XY4", tau_p=1.0, shape=DRAG), 256)
        zz = classify_symmetry(tr, "Z", "Z")
        assert zz.flag("displacement_symmetric")
        assert not zz.flag("displacement_antisymmetric")
        zx = classify_symmetry(tr, "Z", "X")
        assert zx.flag("displacement_antisymmetric")
        assert not zx.flag("displacement_symmetric")

    def test_staggered_ur12_blue_displacement_antisymmetric(self):
        sched = cr_dd("XY4", "UR12", tau_p=1.0, shape=DRAG)
        tb = control_trace(sched.blue, 256)
        for alpha in ("X", "Y"):
            comp = classify_symmetry(tb, "Z", alpha)
            assert comp.residuals["displacement_antisymmetric"] <= 1e-6
            assert comp.flag("displacement_antisymmetric")

    def test_exclusive_unless_zero(self):
        tr, _ = paired_traces(cr_dd("XY4", tau_p=1.0, shape=DRAG), 128)
        for m in "XYZ":
            for a in "XYZ":
                comp = classify_symmetry(tr, m, a)
                both = (comp.flag("displacement_symmetric")
                        and comp.flag("displacement_antisymmetric"))
                if both:
                    y = tr.component(m, a)
                    assert np.abs(y).max() < 1e-8


class TestBangBang:
    def test_ideal_xy4_zz_alternation(self):
        # five free intervals: pulses interior, half-delays at the ends
        seq = ideal_xy4(1.0, symmetric=True)
        tr = bang_bang_trace(seq, 32)
        t, zz = tr.grid.times, tr.R[:, 2, 2]
        probes = [0.25, 1.0, 2.0, 3.0, 3.75]
        expected = [1.0, -1.0, 1.0, -1.0, 1.0]
        for tp_, e in zip(probes, expected):
            idx = np.argmin(np.abs(t - tp_))
            assert zz[idx] == pytest.approx(e)

    def test_ideal_sym_asym_pair_product_integrates_to_zero(self):
        tau_d = 1.0
        asym = ideal_xy4(tau_d)
        sym = ideal_xy4(tau_d, symmetric=True)
        tr = bang_bang_trace(asym, 32, partners=(sym,))
        tb = bang_bang_trace(sym, 32, partners=(asym,))
        c = chi2(tr, tb)
        assert abs(c.entry("Z", "Z")) <= 1e-12 * tr.duration

    def test_ideal_ur10_cyclic(self):
        segs = []
        for ph in named_phases("UR10"):
            segs.append(Segment.delay(1.0))
            segs.append(Segment.for_pulse(ph, 0.0, IDEAL))
        tr = bang_bang_trace(Sequence(tuple(segs)), 32)
        assert tr.R[-1][2, 2] == pytest.approx(1.0)

    def test_rejects_bounded_pulses(self):
        with pytest.raises(ValueError):
            bang_bang_trace(sim_dd("XY4", 2, 1.0, SQUARE), 32)

    def test_matches_propagator_for_ideal_sequences(self):
        seq = ideal_xy4(0.5)
        a = bang_bang_trace(seq, 32)
        b = control_trace(seq, 32)
        assert np.abs(a.R - b.R).max() < 1e-12


class TestNumericalInvariants:
    def test_grid_refinement(self):
        sched = cr_dd("XY4", tau_p=1.0, shape=DRAG)
        vals = []
        for s in (256, 512):
            tr, tb = paired_traces(sched, s)
            vals.append((chi1(tr).values, chi2(tr, tb).values))
        for a, b in zip(vals[0], vals[1]):
            assert np.abs(a - b).max() <= 1e-9 * sched.duration

    def test_square_width_convergence_to_bang_bang(self):
        # fixed unit delays, square pulse width shrunk 1, 1/2, 1/4
        oracle = np.zeros((3, 3))
        oracle[2, 2] = 4.0
        errs = []
        for w in (1.0, 0.5, 0.25):
            segs = []
            for ph in named_phases("XY4"):
                segs.append(Segment.for_pulse(ph, w, SQUARE))
                segs.append(Segment.delay(1.0))
            tr = control_trace(Sequence(tuple(segs)), 128)
            errs.append(np.abs(chi2(tr, tr).values - oracle).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9

    def test_trace_csv(self, tmp_path):
        tr = control_trace(sim_dd("XY4", 1, 1.0, SQUARE), 32)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t_s,R_XX,R_XY,R_XZ,R_YX,R_YY,R_YZ,R_ZX,R_ZY,R_ZZ")
        assert len(lines) == 1 + len(tr.grid.times)


def real_phase_cf4(seg, lo, hs, n):
    """CF4 coefficients of ``n`` steps of ``hs`` from offset ``lo`` into pulse
    ``seg``, at its own drive phase."""
    p = seg.pulse
    axis = complex(math.cos(p.phase), math.sin(p.phase))

    def rate(t):
        wi, wq = envelope_amplitude(p.shape, p.flip_angle, seg.duration, t)
        return (wi + 1j * wq) * axis

    t0 = lo + np.arange(n) * hs
    g1, g2 = _kernels._GAUSS_NODES
    return _kernels.cf4_steps(rate(t0 + g1 * hs), rate(t0 + g2 * hs), hs)


def step_chain(sequence, samples_per_pulse, partners=()):
    """Oracle for ``propagate``: every CF4 step of the cycle at its real drive
    phase, delays and the two halves of an ideal pulse's slot as zero steps,
    and the ideal turns as one-factor steps, chained from I by ``su2_chain``,
    over the cut's step counts and offsets.  Returns the node times, the
    pieces and U."""
    edges, cut, instants = _common_cut((sequence, *partners), samples_per_pulse)
    zero = np.zeros(1)
    runs, pieces, node, sep = [], [], 0, False  # runs of (dt, cx, cy, dx, dy)
    for i in range(len(edges)):
        here = instants.get(i, ())
        own = [p for q, p in here if q == 0]
        width = max(Counter(q for q, _ in here).values(), default=0)
        for p in own:
            runs.append((zero, np.array([p.flip_angle * math.cos(p.phase)]),
                         np.array([p.flip_angle * math.sin(p.phase)]), zero, zero))
        runs += [(zero,) * 5] * (width - len(own))
        node += width
        sep = sep and not width
        if i == len(cut):
            break
        n, ((seg, lo, hi, _), *_) = cut[i]
        if sep:
            runs.append((zero,) * 5)
            node += 1
        hs = (hi - lo) / n
        if seg.kind == "delay" or seg.pulse.shape.is_ideal:
            runs.append((np.full(n, hs),) + (np.zeros(n),) * 4)
        else:
            runs.append((np.full(n, hs), *real_phase_cf4(seg, lo, hs, n)))
        pieces.append((node, node + n))
        node += n
        sep = True
    dt, *coeffs = (np.concatenate(col) for col in zip(*runs))
    U = np.empty((len(dt) + 1, 2, 2), dtype=complex)
    U[0] = np.eye(2)
    _kernels.su2_chain(*coeffs, U)
    return np.concatenate(([0.0], np.cumsum(dt))), tuple(pieces), U


class TestSegmentPropagation:
    """propagate composes per-piece local turns; it must give the step chain."""

    def assert_matches_step_chain(self, sequence, samples, partners=()):
        grid, U = propagate(sequence, samples, partners)
        times, pieces, want = step_chain(sequence, samples, partners)
        assert np.array_equal(grid.times, times)
        assert grid.pieces == pieces
        assert np.abs(U - want).max() <= 1e-11

    @pytest.mark.parametrize("shape", [SQUARE, GAUSS, DRAG, IDEAL], ids=lambda s: s.kind)
    @pytest.mark.parametrize("k, mode", [(1, "symmetric"), (2, "asymmetric")])
    @pytest.mark.parametrize("name", ["XY4", "EDD", "KDD", "UR10", "UR12", "RGA64c"])
    def test_catalog(self, name, k, mode, shape):
        sched = cr_dd(name, tau_p=5.69e-8, shape=shape, k=k, mode=mode)
        self.assert_matches_step_chain(sched.red, 32, (sched.blue,))
        self.assert_matches_step_chain(sched.blue, 32, (sched.red,))

    @pytest.mark.parametrize("shape", [SQUARE, GAUSS, DRAG, IDEAL], ids=lambda s: s.kind)
    def test_sim_xy4_2(self, shape):
        self.assert_matches_step_chain(sim_dd("XY4", 2, 5.69e-8, shape), 64)

    @pytest.mark.parametrize("partner", [SQUARE, GAUSS, DRAG], ids=lambda s: s.kind)
    def test_partner_edge_cuts_shaped_pulse(self, partner):
        # the blue pulse starts inside the red DRAG pulse and ends after it
        red = Sequence((Segment.delay(0.5), Segment.for_pulse(0.3, 1.0, DRAG),
                        Segment.delay(1.5), Segment.for_pulse(2.0, 1.0, DRAG)))
        blue = Sequence((Segment.delay(0.8), Segment.for_pulse(1.1, 1.0, partner),
                         Segment.delay(1.7), Segment.for_pulse(-0.4, 0.5, partner)))
        self.assert_matches_step_chain(red, 128, (blue,))
        self.assert_matches_step_chain(blue, 128, (red,))

    def test_envelope_sampled_twice_per_step_for_each_key(self, monkeypatch):
        import crdd.control as control
        sizes = []

        def counting(shape, flip_angle, tau_p, t):
            sizes.append(np.size(t))
            return envelope_amplitude(shape, flip_angle, tau_p, t)

        envelope_amplitude = control.envelope_amplitude
        monkeypatch.setattr(control, "envelope_amplitude", counting)
        seq = cr_dd("RGA64c", tau_p=5.69e-8, shape=DRAG).red
        control_trace(seq, 64)
        assert sum(s.kind == "pulse" for s in seq.segments) == 64
        # the 64 pulses are one key, stepped n = 64 times: two Gauss nodes a step
        assert sizes == [64, 64]

    @pytest.mark.parametrize("samples", [16.5, 64.0, True])
    def test_samples_per_pulse_must_be_an_integer_from_16(self, samples):
        sched = cr_dd("XY4", tau_p=1.0, shape=DRAG)
        with pytest.raises(ValueError, match="samples_per_pulse"):
            propagate(sched.red, samples)
        with pytest.raises(ValueError, match="samples_per_pulse"):
            verify_first_order(sched, samples)

    def test_numpy_integer_samples_accepted(self):
        sched = cr_dd("XY4", tau_p=1.0, shape=DRAG)
        assert np.array_equal(propagate(sched.red, np.int64(32))[1], propagate(sched.red, 32)[1])
        assert verify_first_order(sched, np.int64(32)).passed


def loop_classify(trace):
    """Oracle for ``classify_all``: relative RMS residuals one component at a time."""
    t, R = trace.uniform_view()
    half = (len(t) - 1) // 2
    res = np.empty((3, 3, len(RELATIONS)))
    for m in range(3):
        for a in range(3):
            y = R[:, m, a]
            rms = [math.sqrt(float(np.mean(d * d))) for d in
                   (y, y[half:] - y[:half + 1], y[half:] + y[:half + 1], y[::-1] - y, y[::-1] + y)]
            res[m, a] = [r / max(rms[0], 1e-300) for r in rms[1:]]
    return res


class TestCompactReports:
    @pytest.mark.parametrize("shape", [SQUARE, DRAG], ids=lambda s: s.kind)
    @pytest.mark.parametrize("name", ["XY4", "RGA64c"])
    def test_classify_all_matches_component_loop(self, name, shape):
        sched = cr_dd(name, "UR12" if name == "XY4" else None, tau_p=5.69e-8, shape=shape)
        for seq in (sched.red, sched.blue):
            tr = control_trace(seq, 64)
            want, got = loop_classify(tr), classify_all(tr).residuals
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            assert np.array_equal(got <= 1e-6, want <= 1e-6)

    @pytest.mark.parametrize("obj", [cr_dd("XY4", tau_p=1.0, shape=DRAG),
                                     sim_dd("XY4", 2, 1.0, SQUARE)], ids=["cr", "sim"])
    def test_suppression_report_rows_from_one_array(self, obj, tmp_path):
        rep = verify_first_order(obj, 64, tol=1e-8)
        assert rep.values.shape == (len(rep.kinds), 3, 3)
        bound = 1e-8 * obj.duration
        rows = tuple((kind, "XYZ"[m], "XYZ"[a], float(rep.values[k, m, a]),
                      abs(float(rep.values[k, m, a])) <= bound)
                     for k, kind in enumerate(rep.kinds) for m in range(3) for a in range(3))
        assert rep.rows == rows
        assert all(type(r[3]) is float and type(r[4]) is bool for r in rep.rows)
        assert rep.passed == all(r[4] for r in rows if r[0] == "two_local")
        assert rep.max_abs == max(abs(r[3]) for r in rows)
        assert rep.max_relative == rep.max_abs / obj.duration
        assert rep.two_local_max_relative == max(
            abs(r[3]) for r in rows if r[0] == "two_local") / obj.duration
        assert rep.failures() == [r for r in rows if not r[4]]
        assert rep.two_local_failures() == [r for r in rows if r[0] == "two_local" and not r[4]]
        rep.to_csv(tmp_path / "chi.csv")
        want = "kind,alpha,beta,value_s,pass\n" + "".join(
            f"{k},{a},{b},{v!r},{str(ok).lower()}\n" for k, a, b, v, ok in rows)
        assert (tmp_path / "chi.csv").read_text() == want

    def test_trace_csv_text(self, tmp_path):
        # a node time, then R row by row; floats round-trip, -0.0 included
        R = np.stack([np.eye(3), np.diag([-0.0, 1 / 3, 1e-17]), -np.eye(3)])
        trace = ControlTrace(TimeGrid(np.array([0.0, 0.5, 1.5e-8]), ((0, 2),), 1.5e-8), R)
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == (
            "t_s,R_XX,R_XY,R_XZ,R_YX,R_YY,R_YZ,R_ZX,R_ZY,R_ZZ\n"
            "0.0,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0\n"
            "0.5,-0.0,0.0,0.0,0.0,0.3333333333333333,0.0,0.0,0.0,1e-17\n"
            "1.5e-08,-1.0,-0.0,-0.0,-0.0,-1.0,-0.0,-0.0,-0.0,-1.0\n")

    def test_symmetry_csv_text(self, tmp_path):
        # one row per (mu, alpha) in XYZ order and per relation; a residual
        # equal to tol is flagged true
        residuals = np.full((3, 3, len(RELATIONS)), 2.0)
        residuals[0, 1] = [1e-17, 0.25, 2.5e-7, 1.0]
        SymmetryReport(residuals, 0.25).to_csv(tmp_path / "symmetry.csv")
        lines = (tmp_path / "symmetry.csv").read_text().split("\n")
        assert lines[0] == "mu,alpha,relation,residual,flag"
        assert lines[5:9] == ["X,Y,displacement_symmetric,1e-17,true",
                              "X,Y,displacement_antisymmetric,0.25,true",
                              "X,Y,mirror_symmetric,2.5e-07,true",
                              "X,Y,mirror_antisymmetric,1.0,false"]
        assert lines[1:5] + lines[9:] == [
            f"{m},{a},{rel},2.0,false" for m in "XYZ" for a in "XYZ" if (m, a) != ("X", "Y")
            for rel in RELATIONS] + [""]


@pytest.mark.parametrize("axis", ["XY", "", "w", 3, "0"])
def test_axis_names_are_one_letter_or_index(axis):
    tr = control_trace(sim_dd("XY4", 1, 1.0, SQUARE), 32)
    with pytest.raises(ValueError, match="axis must be one of X, Y, Z"):
        tr.component(axis, "Z")
    assert np.array_equal(tr.component("y", 2), tr.component(1, "Z"))
