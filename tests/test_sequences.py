import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from crdd.sequences import (
    CatalogError, ColoredSchedule, NotBipartiteError, PulseShape, PulseSpec, QubitGraph,
    SEQUENCE_CATALOG, Segment, Sequence, build_named, cr_dd, cr_variant,
    _calibrate_drag, _common_cut, envelope_amplitude, named_phases, pad, sim_dd, sim_variant,
    two_color,
)

PI = math.pi
SQUARE = PulseShape.square()
DRAG = PulseShape.gaussian_drag()
IDEAL = PulseShape.ideal()


def su2_pulse(phase):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    axis = math.cos(phase) * x + math.sin(phase) * y
    return math.cos(PI / 2) * np.eye(2) - 1j * math.sin(PI / 2) * axis


class TestCatalog:
    def test_pulse_counts(self):
        counts = {k: len(v) for k, v in SEQUENCE_CATALOG.items()}
        assert counts == {"XY4": 4, "EDD": 8, "KDD": 20, "UR10": 10,
                          "UR12": 12, "RGA64c": 64}

    def test_xy4_temporal_phases(self):
        assert named_phases("XY4") == (0.0, PI / 2, 0.0, PI / 2)

    def test_ur10_phases(self):
        expected = tuple(PI / 5 * k for k in (0, 4, 2, 4, 0, 0, 4, 2, 4, 0))
        assert named_phases("UR10") == expected

    def test_ur12_phases(self):
        expected = tuple(PI / 3 * k for k in (0, 1, 3, 0, 4, 3, 3, 4, 0, 3, 1, 0))
        assert named_phases("ur12") == expected

    def test_edd_phases(self):
        assert named_phases("EDD") == (0, PI / 2, 0, PI / 2, PI / 2, 0, PI / 2, 0)

    def test_kdd_composite_blocks(self):
        kx = (PI / 6, 0, PI / 2, 0, PI / 6)
        ky = (2 * PI / 3, PI / 2, PI, PI / 2, 2 * PI / 3)
        assert named_phases("KDD") == kx + ky + kx + ky

    def test_rga64c_first_block_is_edd(self):
        assert named_phases("RGA64c")[:8] == named_phases("EDD")

    def test_rga64c_hand_expansion(self):
        # frame-conjugated inner cycles, expanded by hand (units of pi):
        # frames I, X, Z, Y, I, Y, Z, X acting as phi, -phi, phi+pi, pi-phi
        edd = np.array([0, 0.5, 0, 0.5, 0.5, 0, 0.5, 0])
        blocks = [edd, -edd, edd + 1, 1 - edd, edd, 1 - edd, edd + 1, -edd]
        expected = np.concatenate(blocks) * PI % (2 * PI)
        assert np.allclose(named_phases("RGA64c"), expected, atol=1e-12)

    def test_rga64c_realizes_virtual_concatenation(self):
        # the 64 physical pulses must reproduce the control product of the
        # outer EDD cycle with inner EDD cycles in its free-evolution slots
        target = np.eye(2, dtype=complex)
        for outer in named_phases("EDD"):
            for p in named_phases("EDD"):
                target = su2_pulse(p) @ target
            target = su2_pulse(outer) @ target
        physical = np.eye(2, dtype=complex)
        for p in named_phases("RGA64c"):
            physical = su2_pulse(p) @ physical
        phase = np.trace(target.conj().T @ physical) / 2
        assert abs(abs(phase) - 1) < 1e-12
        assert np.abs(physical - phase * target).max() < 1e-12

    def test_rga64c_is_cyclic(self):
        u = np.eye(2, dtype=complex)
        for p in named_phases("RGA64c"):
            u = su2_pulse(p) @ u
        assert np.abs(np.abs(np.trace(u)) - 2) < 1e-12  # proportional to I

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            named_phases("UDD")

    def test_build_named_structure(self):
        seq = build_named("xy4", 2.0, SQUARE)
        assert seq.pulse_count == 4
        assert seq.duration == 8.0  # back-to-back pulses, no delays
        assert all(s.kind == "pulse" for s in seq.segments)


@pytest.mark.parametrize("field", ["phase", "duration", "flip_angle"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pulse_spec_rejects_non_finite(field, value):
    kwargs = {"phase": 0.0, "duration": 1.0, "shape": SQUARE, "flip_angle": PI}
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"pulse {field} must be finite"):
        PulseSpec(**kwargs)


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_delay_rejects_negative_or_non_finite(value):
    with pytest.raises(ValueError, match="segment duration must be finite and >= 0"):
        Segment.delay(value)


class TestSimVariant:
    def test_sim_xy4_2(self):
        seq = sim_dd("XY4", 2, 1.0, SQUARE)
        assert seq.duration == 8.0
        assert seq.pulse_count == 4

    def test_sim_xy4_1_back_to_back(self):
        seq = sim_dd("XY4", 1, 1.0, SQUARE)
        assert seq.duration == 4.0
        assert all(s.kind == "pulse" for s in seq.segments)

    def test_sim_ur10_8_wall_time(self):
        seq = sim_dd("UR10", 8, 36e-9, SQUARE)
        assert seq.duration == pytest.approx(2.88e-6, rel=1e-12)

    def test_pulse_precedes_delay(self):
        seq = sim_variant((0.0,), 1.0, 0.5, SQUARE)
        assert [s.kind for s in seq.segments] == ["pulse", "delay"]

    def test_errors(self):
        with pytest.raises(ValueError):
            sim_variant((), 1.0, 1.0, SQUARE)
        with pytest.raises(ValueError):
            sim_variant((0.0,), 1.0, -1.0, SQUARE)

    @pytest.mark.parametrize("tau_d", [-1.0, math.nan, math.inf, -math.inf])
    def test_refuses_tau_d_by_name(self, tau_d):
        with pytest.raises(ValueError, match=f"tau_d must be finite and >= 0, got {tau_d}"):
            sim_variant((0.0,), 1.0, tau_d, SQUARE)


@pytest.mark.parametrize("k", [0, -1, 2.5, 2.0, True, "2"])
def test_sim_and_cr_dd_refuse_k_that_is_not_a_positive_integer(k):
    # a fractional or bool k would be named SIM-XY4-2.5 or SIM-XY4-True, or
    # pad a CR schedule by 1.5 tau_p under the integer-k label CR-XY4-padS
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        sim_dd("XY4", k, 1.0, SQUARE)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        cr_dd("XY4", tau_p=1.0, shape=SQUARE, k=k)


class TestCrVariant:
    def test_cr_xy4_pulse_centers(self):
        sched = cr_variant(named_phases("XY4"), named_phases("XY4"), 1.0, SQUARE)
        assert sched.duration == 8.0
        blue_centers = [(a + b) / 2 for a, b in sched.blue.pulse_windows()]
        red_centers = [(a + b) / 2 for a, b in sched.red.pulse_windows()]
        assert blue_centers == [0.5 + 2 * j for j in range(4)]
        assert red_centers == [1.5 + 2 * j for j in range(4)]

    def test_heterogeneous_repetition_matching(self):
        sched = cr_dd("XY4", "UR12", tau_p=1.0, shape=SQUARE)
        assert sched.pulse_count == 12
        assert sched.duration == 24.0
        assert sched.red.phases == named_phases("XY4") * 3
        assert sched.blue.phases == named_phases("UR12")

    def test_minimal_single_pulse(self):
        sched = cr_variant((0.0,), (0.0,), 1.0, SQUARE)
        assert sched.blue.pulse_windows() == [(0.0, 1.0)]
        assert sched.red.pulse_windows() == [(1.0, 2.0)]

    def test_length_mismatch_names_both(self):
        with pytest.raises(ValueError, match=r"4.*12|12.*4"):
            cr_variant(named_phases("XY4"), named_phases("UR12"), 1.0, SQUARE)

    def test_no_cross_color_overlap_random_phases(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            length = int(rng.integers(1, 9))
            pr = rng.uniform(0, 2 * PI, length)
            pb = rng.uniform(0, 2 * PI, length)
            sched = cr_variant(pr, pb, 0.37, SQUARE)
            assert sched.red.duration == sched.blue.duration
            for (r0, r1) in sched.red.pulse_windows():
                for (b0, b1) in sched.blue.pulse_windows():
                    assert r1 <= b0 + 1e-12 or b1 <= r0 + 1e-12


class TestPad:
    def test_symmetric_k2_duration(self):
        sched = cr_dd("XY4", tau_p=1.0, shape=SQUARE, k=2, mode="symmetric")
        assert sched.duration == 16.0

    def test_k1_unchanged(self):
        base = cr_dd("XY4", tau_p=1.0, shape=SQUARE)
        assert pad(base, 0.0, "symmetric") is base

    def test_padded_k16_wall_time(self):
        tau_p = 49.7e-9 + 7e-9 / 9 / 10  # 49.7 repeating ns
        sched = cr_dd("XY4", tau_p=tau_p, shape=SQUARE, k=16, mode="symmetric")
        assert sched.duration == pytest.approx(6.37e-6, rel=1e-3)

    def test_asymmetric_slot_structure(self):
        sched = pad(cr_dd("XY4", tau_p=1.0, shape=SQUARE), 0.5, "asymmetric")
        kinds = [s.kind for s in sched.red.segments[:4]]
        durs = [s.duration for s in sched.red.segments[:4]]
        assert kinds == ["delay", "delay", "delay", "pulse"]
        assert durs == [0.5, 1.0, 0.5, 1.0]
        kinds_b = [s.kind for s in sched.blue.segments[:4]]
        assert kinds_b == ["delay", "pulse", "delay", "delay"]

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("tau_d", [0.3, 1.0, 3.0])
    def test_duration_formula_and_overlap(self, mode, tau_d):
        base = cr_dd("UR10", tau_p=0.7, shape=SQUARE)
        sched = pad(base, tau_d, mode)
        assert sched.pulse_count == base.pulse_count
        assert sched.duration == pytest.approx(2 * 10 * (0.7 + tau_d), rel=1e-12)
        for (r0, r1) in sched.red.pulse_windows():
            for (b0, b1) in sched.blue.pulse_windows():
                assert r1 <= b0 + 1e-12 or b1 <= r0 + 1e-12

    def test_negative_tau_d(self):
        with pytest.raises(ValueError, match="tau_d must be finite and >= 0"):
            pad(cr_dd("XY4", tau_p=1.0, shape=SQUARE), -1.0, "symmetric")

    @pytest.mark.parametrize("tau_d", [math.nan, math.inf])
    def test_non_finite_tau_d(self, tau_d):
        with pytest.raises(ValueError, match="tau_d must be finite and >= 0"):
            pad(cr_dd("XY4", tau_p=1.0, shape=SQUARE), tau_d, "symmetric")

    @pytest.mark.parametrize("kw", [dict(k=0), dict(k=1, mode="sideways")])
    def test_cr_dd_refuses_bad_padding(self, kw):
        with pytest.raises(ValueError):
            cr_dd("XY4", tau_p=1.0, shape=SQUARE, **kw)

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("shape", [SQUARE, PulseShape.gaussian_drag(), PulseShape.ideal()])
    def test_cr_dd_equals_pad_of_unpadded(self, shape, mode):
        for red, blue in (("XY4", None), ("XY4", "UR12"), ("KDD", None)):
            for k in (2, 3, 4):
                direct = cr_dd(red, blue, tau_p=3.7e-8, shape=shape, k=k, mode=mode)
                base = cr_dd(red, blue, tau_p=3.7e-8, shape=shape)
                assert pad(base, (k - 1) * 3.7e-8, mode) == direct

    @pytest.mark.parametrize("tau_d", [0.0, 1.0])
    def test_refuses_a_layout_it_would_rewrite(self, tau_d):
        # pulses narrower than their stagger slots, pi/2 pulses and an already
        # padded schedule would come back as another schedule
        base = cr_dd("XY4", tau_p=1.0, shape=SQUARE)

        def rebuilt(seq, width, angle):
            return Sequence(tuple(Segment.for_pulse(s.pulse.phase, width, SQUARE, angle)
                                  if s.kind == "pulse" else s for s in seq.segments))

        for sched in (ColoredSchedule(rebuilt(base.red, 0.5, PI), rebuilt(base.blue, 0.5, PI)),
                      ColoredSchedule(rebuilt(base.red, 1.0, PI / 2),
                                      rebuilt(base.blue, 1.0, PI / 2)),
                      pad(base, 1.0, "asymmetric")):
            with pytest.raises(ValueError, match="not an unpadded staggered schedule"):
                pad(sched, tau_d, "symmetric")

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("name", sorted(SEQUENCE_CATALOG))
    def test_ideal_padded_schedules_build(self, name, mode):
        # the colors add the same delays in different orders; durations are
        # exactly rounded sums, so the pair still has one duration
        for k in (2, 3, 4):
            for tau_p in (1e-7, 5.69e-8, 3.3e-8, 2.1e-8, 7.7e-8):
                sched = cr_dd(name, tau_p=tau_p, shape=PulseShape.ideal(), k=k, mode=mode)
                assert sched.pulse_count == len(named_phases(name))


class TestEnvelopes:
    def test_square_constant(self):
        t = np.linspace(0, 1, 11)
        wi, wq = envelope_amplitude(SQUARE, PI, 1.0, t)
        assert np.allclose(wi, PI)
        assert np.all(wq == 0)

    def test_gaussian_area_calibration(self):
        shape = PulseShape.gaussian(sigma=0.25)
        area, _ = quad(lambda t: envelope_amplitude(shape, PI, 1.0, t)[0], 0, 1,
                       epsabs=1e-13, epsrel=1e-13)
        assert abs(area - PI) < 1e-10

    def test_drag_quadrature_vanishes_at_center(self):
        shape = PulseShape.gaussian_drag(sigma=0.25, drag_coefficient=0.5)
        _, wq = envelope_amplitude(shape, PI, 1.0, 0.5)
        assert abs(wq) < 1e-12

    def test_drag_calibration_stays_on_gaussian_branch(self):
        # the amplitude scale falls smoothly from 1 at beta = 0; a larger-amplitude
        # root also makes an exact pi pulse but is not the calibrated drag pulse
        scale, _ = _calibrate_drag(0.25, 0.5)
        assert 0.5 < scale < 1.0

    def test_ideal_has_no_envelope(self):
        with pytest.raises(ValueError, match="no continuous envelope"):
            envelope_amplitude(PulseShape.ideal(), PI, 1.0, 0.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            envelope_amplitude(SQUARE, PI, 1.0, 1.5)


class TestTwoColor:
    def test_path(self):
        g = two_color(QubitGraph.path(4))
        assert g.coloring == ("R", "B", "R", "B")

    def test_triangle_not_bipartite(self):
        g = QubitGraph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(NotBipartiteError) as exc:
            two_color(g)
        cycle = exc.value.cycle
        assert len(cycle) % 2 == 1
        assert set(cycle) <= {0, 1, 2}

    def test_disconnected_components(self):
        g = two_color(QubitGraph(4, ((0, 1), (2, 3))))
        assert g.coloring == ("R", "B", "R", "B")

    def test_idempotent(self):
        g = two_color(QubitGraph.path(5))
        assert two_color(g).coloring == g.coloring

    def test_component_roots_are_red(self):
        g = two_color(QubitGraph(5, ((1, 3), (2, 4))))
        assert g.coloring[0] == "R"  # isolated vertex
        assert g.coloring[1] == "R"
        assert g.coloring[2] == "R"

    def test_proper_under_relabeling(self):
        rng = np.random.default_rng(3)
        base_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]
        for _ in range(20):
            perm = rng.permutation(6)
            edges = tuple((int(perm[u]), int(perm[v])) for u, v in base_edges)
            colored = two_color(QubitGraph(6, edges))
            for (u, v) in colored.edges:
                assert colored.coloring[u] != colored.coloring[v]

    def test_odd_cycle_in_larger_graph(self):
        g = QubitGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (0, 5)))
        with pytest.raises(NotBipartiteError) as exc:
            two_color(g)
        cyc = exc.value.cycle
        assert len(cyc) % 2 == 1
        edge_set = {tuple(sorted(e)) for e in g.edges}
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert tuple(sorted((a, b))) in edge_set


class TestJson:
    def test_sequence_roundtrip(self):
        seq = sim_dd("KDD", 2, 3.2e-8, PulseShape.gaussian_drag())
        again = Sequence.from_json(seq.to_json())
        assert again.phases == seq.phases
        assert again.duration == seq.duration
        assert again.segments == seq.segments

    def test_schedule_roundtrip(self):
        sched = cr_dd("XY4", "UR12", tau_p=1e-8, shape=SQUARE, k=2)
        again = ColoredSchedule.from_json(sched.to_json())
        assert again == sched

    def test_ideal_slots_roundtrip(self):
        sched = cr_dd("XY4", "UR12", tau_p=1e-8, shape=IDEAL, k=2)
        assert ColoredSchedule.from_json(sched.to_json()) == sched
        assert json.loads(sched.to_json())["red"]["tau_p_s"] == 1e-8

    def test_sequence_schema_fields(self):
        seq = build_named("xy4", 5.69e-8, SQUARE)
        doc = json.loads(seq.to_json())
        assert set(doc) == {"name", "tau_p_s", "shape", "slots"}
        assert doc["tau_p_s"] == 5.69e-8
        assert [s["kind"] for s in doc["slots"]] == ["pulse"] * 4
        assert all("phase_rad" in s for s in doc["slots"])

    def test_refuses_flip_angle_it_cannot_hold(self):
        # the JSON form has no flip angle; a pi/2 pulse would read back as pi
        seq = Sequence((Segment.delay(1.0), Segment.for_pulse(0.0, 1.0, SQUARE, PI / 2)))
        with pytest.raises(ValueError, match="flip angle"):
            seq.to_json()

    def test_refuses_mixed_shapes(self):
        # the JSON form has one shape; a gaussian pulse would read back as square
        seq = Sequence((Segment.for_pulse(0.0, 1.0, SQUARE),
                        Segment.for_pulse(PI / 2, 1.0, PulseShape.gaussian())))
        with pytest.raises(ValueError, match="mixed pulse shapes"):
            seq.to_dict()

    def test_graph_roundtrip(self):
        g = two_color(QubitGraph(4, ((0, 1), (1, 2), (2, 3))))
        again = QubitGraph.from_json(g.to_json())
        assert again == g

    def test_graph_rejects_improper_coloring(self):
        with pytest.raises(ValueError):
            QubitGraph(2, ((0, 1),), coloring=("R", "R"))

    @pytest.mark.parametrize("edges", [((0, 1), (1, 0)), ((0, 1), (1, 2), (0, 1))])
    def test_repeated_edge_refused(self, edges):
        # a device would sum the two couplings of one pair of qubits
        with pytest.raises(ValueError, match=r"edge \(0,1\) appears more than once"):
            QubitGraph(3, edges)

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            QubitGraph(2, ((1, 1),))

    @pytest.mark.parametrize("n, edges", [(2.0, ((0, 1),)), (2, ((0.0, 1.0),)),
                                          (2, ((False, True),)), (True, ())])
    def test_non_integer_vertices_refused(self, n, edges):
        with pytest.raises(ValueError, match="must be integers"):
            QubitGraph(n, edges)

    def test_numpy_integer_vertices_accepted(self):
        g = QubitGraph(np.int64(2), ((np.int64(0), np.int64(1)),))
        assert g.edges == ((0, 1),)


class TestSegmentValidation:
    def test_delay_no_payload(self):
        d = Segment.delay(1.0)
        assert d.pulse is None

    def test_ideal_pulse_zero_duration(self):
        # an ideal pulse lasts the slot it turns in the middle of, >= 0
        assert Segment.for_pulse(0.0, 0.0, PulseShape.ideal()).duration == 0.0
        assert Segment.for_pulse(0.0, 1.0, PulseShape.ideal()).duration == 1.0
        with pytest.raises(ValueError, match="duration"):
            Segment.for_pulse(0.0, -1.0, PulseShape.ideal())

    def test_bounded_pulse_positive_duration(self):
        with pytest.raises(ValueError):
            Segment.for_pulse(0.0, 0.0, SQUARE)

    def test_duration_does_not_depend_on_segment_order(self):
        delays = [Segment.delay(d) for d in (0.1, 0.2, 0.3)]
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        assert Sequence(delays).duration == Sequence(delays[::-1]).duration == 0.6

    def test_sequence_needs_positive_duration(self):
        with pytest.raises(ValueError):
            Sequence((Segment.delay(0.0),))


def seq_of(*segments):
    return Sequence(tuple(segments))


def offsets(pieces, q):
    """``(segment, lo, hi)`` of sequence ``q`` in every piece of a cut."""
    return [parts[q][:3] for _, parts in pieces]


class TestCommonCut:
    def test_edges_are_the_union_of_segment_edges(self):
        pulse = Segment.for_pulse(0.0, 2.0, SQUARE)
        a = seq_of(Segment.delay(1.0), pulse, Segment.delay(1.0))
        b = seq_of(Segment.for_pulse(0.0, 1.5, SQUARE), Segment.delay(2.5))
        edges, pieces, events = _common_cut((a, b), 16)
        assert edges == [0.0, 1.0, 1.5, 3.0, 4.0]
        assert events == {}
        assert offsets(pieces, 0) == [(a.segments[0], 0.0, 1.0), (pulse, 0.0, 0.5),
                                      (pulse, 0.5, 2.0), (a.segments[2], 0.0, 1.0)]
        assert offsets(pieces, 1) == [(b.segments[0], 0.0, 1.0), (b.segments[0], 1.0, 1.5),
                                      (b.segments[1], 0.0, 1.5), (b.segments[1], 1.5, 2.5)]

    def test_edges_within_tolerance_merge_into_the_earliest(self):
        # tolerance 1e-12 * 2.0; 2**-44 ~ 5.7e-14 merges, 2**-38 ~ 3.6e-12 does not
        a = seq_of(Segment.delay(1.0), Segment.delay(1.0))
        for gap, expected in ((2.0 ** -44, [0.0, 1.0, 2.0]),
                              (2.0 ** -38, [0.0, 1.0, 1.0 + 2.0 ** -38, 2.0])):
            b = seq_of(Segment.delay(1.0 + gap), Segment.delay(1.0 - gap))
            edges, pieces, _ = _common_cut((a, b), 16)
            assert edges == expected
            assert len(pieces) == len(edges) - 1

    def test_offsets_are_exact_at_merged_edges(self):
        # b's inner edge 1 + 2**-44 merges into a's 1.0, and c's delays sum
        # to 0.6000000000000001 where the durations' exact sum is 0.6: at
        # its own edges a segment's part still runs from 0 to its duration
        gap = 2.0 ** -44
        pulse = Segment.for_pulse(0.0, 0.6, DRAG)
        a = seq_of(pulse)
        b = seq_of(Segment.delay(0.3 + gap), Segment.delay(0.3 - gap))
        c = seq_of(*(Segment.delay(d) for d in (0.1, 0.2, 0.3)))
        edges, pieces, _ = _common_cut((a, b, c), 16)
        t1 = 0.1 + 0.2
        assert edges == [0.0, 0.1, t1, 0.6]
        assert offsets(pieces, 0) == [(pulse, 0.0, 0.1), (pulse, 0.1, t1), (pulse, t1, 0.6)]
        assert offsets(pieces, 1) == [(b.segments[0], 0.0, 0.1), (b.segments[0], 0.1, 0.3 + gap),
                                      (b.segments[1], 0.0, 0.3 - gap)]
        assert offsets(pieces, 2) == [(c.segments[0], 0.0, 0.1), (c.segments[1], 0.0, 0.2),
                                      (c.segments[2], 0.0, 0.3)]

    @pytest.mark.parametrize("shape", [SQUARE, DRAG], ids=lambda s: s.kind)
    def test_keys_name_the_phase_zero_interval(self, shape):
        # q0 pulses at phases pi/2 then 0.3 from t = 0, q1 at 0 then 1.1 from
        # t = 0.5: the three intervals where both pulse are equally long, and
        # each cuts its pulses halfway, at offsets (0.5, 1) or (0, 0.5)
        q0 = seq_of(Segment.for_pulse(PI / 2, 1.0, shape), Segment.for_pulse(0.3, 1.0, shape),
                    Segment.delay(2.0))
        q1 = seq_of(Segment.delay(0.5), Segment.for_pulse(0.0, 1.0, shape),
                    Segment.for_pulse(1.1, 1.0, shape), Segment.delay(1.5))
        edges, pieces, _ = _common_cut((q0, q1), 16)
        assert edges == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0]
        keys = [tuple(part[3] for part in parts) for _, parts in pieces]
        assert keys[0][1] is None and keys[4][0] is None and keys[5] == (None, None)
        # neither the drive phase nor the pulse's place is part of the key
        assert keys[1] == keys[3]
        assert keys[0][0] == keys[2][0] == keys[1][1]
        # offsets (0.5, 1) and (0, 0.5): equal for a square rate, not for a shaped one
        assert (keys[1][0] == keys[2][0]) == (shape.kind == "square")
        assert (keys[1][1] == keys[2][1]) == (shape.kind == "square")
        assert keys[0][0][:3] == (shape, PI, 1.0)

    def test_step_counts(self):
        # h = longest bounded pulse / samples_per_pulse = 2/16, else the
        # shortest positive segment / samples_per_pulse; n = 2 max(1, round(len / 2h))
        pulse = Segment.for_pulse(0.0, 2.0, SQUARE)
        a = seq_of(Segment.delay(1.0), pulse, Segment.delay(1.0))
        b = seq_of(Segment.for_pulse(0.0, 1.5, SQUARE), Segment.delay(2.5))
        _, pieces, _ = _common_cut((a, b), 16)
        assert [n for n, _ in pieces] == [8, 4, 12, 8]
        _, pieces, _ = _common_cut((a, b), 64)
        assert [n for n, _ in pieces] == [32, 16, 48, 32]
        delays = seq_of(Segment.delay(0.01), Segment.delay(1.0), Segment.delay(2.99))
        _, pieces, _ = _common_cut((delays,), 16)
        assert [n for n, _ in pieces] == [16, 1600, 4784]
        _, pieces, _ = _common_cut((delays, seq_of(Segment.for_pulse(0.0, 4.0, SQUARE))), 16)
        assert [n for n, _ in pieces] == [2, 4, 12]
        # lengths of 2.5 and 3.5 double steps round half to even, as round() does
        halves = seq_of(Segment.for_pulse(0.0, 1.0, SQUARE), Segment.delay(5 / 16),
                        Segment.delay(7 / 16))
        _, pieces, _ = _common_cut((halves,), 16)
        assert [n for n, _ in pieces] == [16, 4, 8]

    @pytest.mark.parametrize("samples", [16.5, True, 15, 0, "16"])
    def test_samples_per_pulse_must_be_an_integer_from_16(self, samples):
        a = seq_of(Segment.for_pulse(0.0, 1.0, SQUARE))
        with pytest.raises(ValueError, match="samples_per_pulse must be an integer >= 16"):
            _common_cut((a,), samples)

    def test_unequal_durations_refused(self):
        short, long_ = seq_of(Segment.delay(1.0)), seq_of(Segment.delay(2.0))
        with pytest.raises(ValueError, match="durations differ"):
            _common_cut((short, long_), 16)

    def test_ideal_slot_idles_around_its_midpoint_turn(self):
        x = Segment.for_pulse(0.0, 2.0, IDEAL)
        a = seq_of(Segment.delay(1.0), x)
        edges, pieces, events = _common_cut((a,), 16)
        assert edges == [0.0, 1.0, 2.0, 3.0]
        assert events == {2: [(0, x.pulse)]}
        assert offsets(pieces, 0)[1:] == [(x, 0.0, 1.0), (x, 1.0, 2.0)]
        assert [parts[0][3] for _, parts in pieces] == [None] * 3

    def test_ideal_turn_within_tolerance_merges_into_a_partner_edge(self):
        # tolerance 1e-12 * 4.0; a's slot turns 2**-44 ~ 5.7e-14 past b's
        # edge at 1.0 and merges into it, 2**-37 ~ 7.3e-12 past it does not
        b = seq_of(Segment.delay(1.0), Segment.delay(3.0))
        for gap, expected, turn in (
                (2.0 ** -43, [0.0, 1.0, 2.0 + 2.0 ** -43, 4.0], 1),
                (2.0 ** -36, [0.0, 1.0, 1.0 + 2.0 ** -37, 2.0 + 2.0 ** -36, 4.0], 2)):
            a = seq_of(Segment.for_pulse(0.3, 2.0 + gap, IDEAL), Segment.delay(2.0 - gap))
            edges, pieces, events = _common_cut((a, b), 16)
            assert edges == expected
            assert events == {turn: [(0, a.segments[0].pulse)]}
            assert len(pieces) == len(edges) - 1

    def test_ideal_pulses_at_start_interior_edges_and_end(self):
        ideal = PulseShape.ideal()
        x, y = (Segment.for_pulse(ph, 0.0, ideal) for ph in (0.0, PI / 2))
        a = seq_of(x, Segment.delay(1.0), y, Segment.delay(1.0), x)
        b = seq_of(y, Segment.delay(0.5), y, x, Segment.delay(1.5))
        edges, _, events = _common_cut((a, b), 16)
        assert edges == [0.0, 0.5, 1.0, 2.0]
        # in sequence order, and in segment order within a sequence
        assert events == {0: [(0, x.pulse), (1, y.pulse)], 1: [(1, y.pulse), (1, x.pulse)],
                          2: [(0, y.pulse)], 3: [(0, x.pulse)]}
