import csv
import dataclasses
import re

import numpy as np
import pytest

from crdd.experiment import (
    AlignmentError, ExperimentPlan, ExperimentResult, FitRow, default_plan, fit_dataset,
    mean_by_duration, parse_method, read_fits_csv, read_results_csv,
    run_experiment, schedule_points, summarize, write_fits_csv, write_results_csv,
)
from crdd.sequences import PulseShape, QubitGraph
from crdd.sim import (
    DeviceModel, SurvivalPoint, SurvivalRecord, cycle_propagator, decode_probabilities,
    idle_schedule, prepare_states, product_state, shot_rng,
)


def tiny_plan(**overrides):
    device = DeviceModel.default(n=2, seed=5)
    kw = dict(device=device, embeddings=((0, 1),),
              methods=("SIM-XY4-2", "CR-XY4"), target_pulses=12, shots=50,
              seed=99, spacing="linear", max_points=16,
              count_type1=1, count_type2=1, states_seed=3,
              samples_per_pulse=64)
    kw.update(overrides)
    return ExperimentPlan(**kw)


def built_cycle(spec, tau_p, shape=PulseShape.square()):
    """First qubit's cycle of a method, as the experiment runs it."""
    return spec.build(tau_p, shape, coloring=("R", "B"))(1)[0]


class TestParseMethod:
    def test_idle(self):
        assert parse_method("IDLE").kind == "idle"

    def test_sim_with_padding(self):
        spec = parse_method("SIM-UR10-8")
        assert spec.kind == "sim" and spec.bases == ("UR10",) and spec.k == 8
        cycle = built_cycle(spec, 36e-9)
        assert cycle.pulse_count == 10
        assert cycle.duration == pytest.approx(2.88e-6)

    def test_sim_default_k(self):
        spec = parse_method("SIM-KDD")
        assert spec.k == 1 and built_cycle(spec, 1.0).pulse_count == 20

    def test_cr_homogeneous(self):
        spec = parse_method("CR-XY4")
        assert spec.kind == "cr" and built_cycle(spec, 1.0).duration == 8.0

    def test_cr_padded_modes(self):
        assert parse_method("CR-XY4-4S").pad_mode == "symmetric"
        assert parse_method("CR-XY4-4A").pad_mode == "asymmetric"
        assert parse_method("CR-XY4-16_S").k == 16

    def test_cr_heterogeneous(self):
        spec = parse_method("CR-(XY4,UR12)")
        assert spec.bases == ("XY4", "UR12")
        cycle = built_cycle(spec, 1.0)
        assert cycle.pulse_count == 12
        assert cycle.duration == 24.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_method("DD-XY4")

    @pytest.mark.parametrize("label", ["SIM-XY4-0", "CR-XY4-0S", "CR-XY4-0A",
                                       "CR-(XY4,UR12)-0_S"])
    def test_rejects_zero_padding_multiple(self, label):
        # a plan would accept the label and the run would fail at its start
        with pytest.raises(ValueError, match="invalid padding multiple"):
            parse_method(label)
        with pytest.raises(ValueError, match="invalid padding multiple"):
            tiny_plan(methods=(label,))


class TestSchedulePoints:
    def test_catalog_alignment_example(self):
        tau_p = 1.0
        cycles = {f"CR-{b}": built_cycle(parse_method(f"CR-{b}"), tau_p)
                  for b in ("XY4", "UR10", "KDD", "RGA64c")}
        methods = {m: (c.pulse_count, c.duration) for m, c in cycles.items()}
        pts = schedule_points(methods, 320)
        for label, lst in pts.items():
            assert lst[-1][2] == 320  # pulses align at the lcm
            assert lst[-1][1] == pytest.approx(640.0)  # 640 pulse durations

    def test_single_method(self):
        pts = schedule_points({"SIM-XY4-2": (4, 8.0)}, 8)
        assert pts["SIM-XY4-2"][-1] == (2, 16.0, 8)

    def test_idle_matches_partner_wall_times(self):
        methods = {"IDLE": (0, 0.0), "SIM-XY4-2": (4, 8.0), "CR-XY4": (4, 16.0)}
        pts = schedule_points(methods, 16, max_points=4)
        active_durs = {d for lbl in ("SIM-XY4-2", "CR-XY4") for (_, d, _) in pts[lbl]}
        idle_durs = [d for (_, d, p) in pts["IDLE"]]
        assert sorted(active_durs) == idle_durs
        assert all(p == 0 for (_, _, p) in pts["IDLE"])

    def test_equal_pulse_counts_at_every_point(self):
        methods = {"SIM-UR10-2": (10, 20.0), "CR-XY4": (4, 8.0)}
        pts = schedule_points(methods, 200)
        counts = [sorted(p for (_, _, p) in pts[m]) for m in methods]
        assert counts[0] == counts[1]
        assert all(c % 20 == 0 for c in counts[0])

    def test_log2_spacing(self):
        pts = schedule_points({"CR-XY4": (4, 8.0)}, 4 * 64, spacing="log2")
        cycles = [c for (c, _, _) in pts["CR-XY4"]]
        assert cycles == [1, 2, 4, 8, 16, 32, 64]

    def test_idle_merges_wall_times_one_ulp_apart(self):
        # 3 cycles of 8 tau_p and 1 cycle of 24 tau_p end 1 ulp apart
        tau_p = 5.69e-8
        methods = {"IDLE": (0, 0.0), "CR-XY4": (4, 8 * tau_p),
                   "CR-(XY4,UR12)": (12, 24 * tau_p)}
        pts = schedule_points(methods, 4 * 2 ** 13, spacing="log2")
        walls = {d for m in ("CR-XY4", "CR-(XY4,UR12)") for (_, d, _) in pts[m]}
        assert len(walls) == 14
        idle = [d for (_, d, _) in pts["IDLE"]]
        assert len(idle) == 13 and set(idle) <= walls
        assert all(b - a > 1e-12 * b for a, b in zip(idle, idle[1:]))
        assert all(min(abs(d - w) for w in idle) <= 1e-12 * d for d in walls)

    @pytest.mark.parametrize("pulses, max_points, want",
                             [(28, 4, [2, 4, 6, 7]), (400, 16, list(range(7, 99, 7)) + [100])])
    def test_linear_spacing_gives_at_most_max_points(self, pulses, max_points, want):
        pts = schedule_points({"CR-XY4": (4, 8.0)}, pulses, max_points=max_points)
        assert [c for (c, _, _) in pts["CR-XY4"]] == want
        assert len(want) <= max_points

    def test_impossible_alignment(self):
        with pytest.raises(AlignmentError) as exc:
            schedule_points({"a": (7, 7.0), "b": (13, 13.0)}, 20)
        assert exc.value.lcm == 91


class TestRunExperiment:
    def test_cell_count(self):
        plan = tiny_plan()
        res = run_experiment(plan)
        rows = res.rows()
        # 2 states x 2 methods x 3 durations
        assert len(rows) == 12
        assert not res.failures

    def test_rerun_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(tiny_plan(), out_path=a)
        run_experiment(tiny_plan(), out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_pulse_count_parity(self):
        res = run_experiment(tiny_plan())
        by_method = {}
        for rec in res.records:
            for pt in rec.points:
                by_method.setdefault(rec.method, set()).add(
                    (pt.duration_s, pt.pulses_applied))
        sim = {p for (_, p) in by_method["SIM-XY4-2"]}
        cr = {p for (_, p) in by_method["CR-XY4"]}
        assert sim == cr

    def test_dataset_completeness_with_idle(self):
        plan = tiny_plan(methods=("IDLE", "SIM-XY4-2"))
        res = run_experiment(plan)
        n_durations = 3
        assert len(res.rows()) == 2 * 2 * n_durations

    def test_incremental_csv_matches_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        res = run_experiment(tiny_plan(), out_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,embedding_id,state_id,duration_s,pulses,shots,zeros,p0"
        assert len(lines) == 1 + len(res.rows())

    def test_ideal_plan_durations_are_built_cycles(self):
        # an ideal pulse keeps its slot, so a cycle lasts as long as a square one
        plan = tiny_plan(methods=("IDLE", "SIM-XY4-2", "CR-XY4"), shape=PulseShape.ideal())
        res = run_experiment(plan)
        assert not res.failures
        walls = set()
        for label in ("SIM-XY4-2", "CR-XY4"):
            cycle = built_cycle(parse_method(label), plan.device.tau_p, plan.shape)
            assert cycle.duration == pytest.approx(8 * plan.device.tau_p)
            for rec in (r for r in res.records if r.method == label):
                for pt in rec.points:
                    assert pt.duration_s == pt.pulses_applied // cycle.pulse_count * cycle.duration
                    walls.add(pt.duration_s)
        idle = {pt.duration_s for r in res.records if r.method == "IDLE" for pt in r.points}
        assert idle == walls

    @pytest.mark.parametrize("name", ["XY4", "EDD", "KDD", "UR10", "UR12", "RGA64c"])
    def test_ideal_cycles_keep_the_square_timing(self, name):
        # an ideal pulse keeps the slot a finite pulse takes
        for label in (f"SIM-{name}-1", f"SIM-{name}-2", f"CR-{name}", f"CR-{name}-3S",
                      f"CR-{name}-2A", f"CR-({name},XY4)"):
            ideal, square = (parse_method(label).build(5.69e-8, shape, coloring=("R", "B"))(2)
                             for shape in (PulseShape.ideal(), PulseShape.square()))
            for a, b in zip(ideal, square):
                assert (a.duration, a.pulse_count) == (b.duration, b.pulse_count)

    def test_failed_cells_are_logged_and_run_continues(self, monkeypatch):
        import crdd.experiment as exp

        original = exp.cycle_propagator

        def flaky(device, schedules, samples_per_pulse=256, **kw):
            seqs = schedules if isinstance(schedules, list) else [schedules]
            if any("SIM" in s.name for s in seqs):
                raise RuntimeError("injected failure")
            return original(device, schedules, samples_per_pulse, **kw)

        monkeypatch.setattr(exp, "cycle_propagator", flaky)
        res = run_experiment(tiny_plan(methods=("SIM-XY4-2", "CR-XY4")))
        # SIM starts with a pulse segment and fails; the staggered run survives
        assert len(res.failures) == 1
        assert res.failures[0][1] == "SIM-XY4-2"
        assert {r[0] for r in res.rows()} == {"CR-XY4"}
        # completeness: cells = embeddings x states x surviving methods x durations
        assert len(res.rows()) == 1 * 2 * 1 * 3

    def triangle_plan(self, embeddings, methods):
        base = DeviceModel.default(n=3, seed=5)
        device = DeviceModel(QubitGraph(3, ((0, 1), (1, 2), (0, 2))), np.full(3, base.zz[0]),
                             base.b, base.tau_p)
        return tiny_plan(device=device, embeddings=embeddings, methods=methods)

    def test_non_bipartite_embedding_runs_the_methods_without_coloring(self):
        res = run_experiment(self.triangle_plan(((0, 1, 2),), ("IDLE", "SIM-XY4-2", "CR-XY4")))
        assert {r[0] for r in res.rows()} == {"IDLE", "SIM-XY4-2"}
        # only the CR method needs the coloring; its failure names the odd cycle
        [(emb_id, label, message)] = res.failures
        assert (emb_id, label) == ("0-1-2", "CR-XY4")
        assert "odd cycle [1, 0, 2]" in message

    def test_bipartite_embedding_of_a_non_bipartite_device(self):
        res = run_experiment(self.triangle_plan(((0, 1),), ("IDLE", "SIM-XY4-2", "CR-XY4")))
        assert not res.failures
        assert {r[0] for r in res.rows()} == {"IDLE", "SIM-XY4-2", "CR-XY4"}


def per_cell_readout(plan, result):
    """Every cell of ``result`` recomputed on its own: encode the state,
    apply the duration's propagator, decode all basis probabilities and draw
    the shots with ``rng.choice`` under the cell's key; maps (method,
    embedding, state, duration index) to (zeros, p0)."""
    device = plan.device.colored()
    out = {}
    for e_idx, emb in enumerate(plan.embeddings):
        sub = device.subdevice(emb)
        emb_id = "-".join(str(v) for v in emb)
        states = prepare_states(len(emb), plan.count_type1, plan.count_type2,
                                plan.states_seed)
        for m_idx, label in enumerate(plan.methods):
            spec = parse_method(label)
            points = next(r.points for r in result.records
                          if (r.method, r.embedding_id) == (label, emb_id))
            if spec.kind != "idle":
                schedules = spec.build(sub.tau_p, plan.shape,
                                       coloring=sub.graph.coloring)(sub.n)
                u_cycle = cycle_propagator(sub, schedules,
                                           samples_per_pulse=plan.samples_per_pulse)
            for d_idx, pt in enumerate(points):
                if spec.kind == "idle":
                    u = cycle_propagator(sub, idle_schedule(pt.duration_s),
                                         samples_per_pulse=plan.samples_per_pulse)
                else:
                    u = np.linalg.matrix_power(
                        u_cycle, pt.pulses_applied // schedules[0].pulse_count)
                for s_idx, state in enumerate(states):
                    probs = decode_probabilities(u @ product_state(state.poles), state.poles)
                    rng = shot_rng(plan.seed, e_idx, (m_idx << 32) | s_idx, d_idx)
                    p = np.clip(probs, 0.0, None)
                    p = p / p.sum()
                    draws = rng.choice(p.size, size=plan.shots, p=p)
                    zeros = int(np.count_nonzero(draws == 0))
                    out[(label, emb_id, state.label, d_idx)] = (zeros, zeros / plan.shots)
    return out


class TestReadout:
    @pytest.mark.parametrize("methods, shape", [
        (("IDLE", "SIM-XY4-2", "CR-XY4"), PulseShape.square()),
        (("CR-(XY4,UR12)",), PulseShape.gaussian_drag()),
    ], ids=["square", "drag"])
    def test_cells_equal_per_cell_decode_and_choice(self, methods, shape):
        # a stronger coupling than the default device's, so survival decays
        device = DeviceModel.default(n=2, j_tau_p=0.05, seed=5)
        plan = tiny_plan(device=device, methods=methods, shape=shape,
                         target_pulses=4 * 2 ** 7, spacing="log2", shots=200,
                         count_type1=6, count_type2=4)
        res = run_experiment(plan)
        assert not res.failures
        got = {(r.method, r.embedding_id, r.state_id, d_idx): (pt.zero_count, pt.p0_estimate)
               for r in res.records for d_idx, pt in enumerate(r.points)}
        assert got == per_cell_readout(plan, res)

    def test_default_plan_decodes_nothing_and_encodes_once(self, monkeypatch):
        import crdd.experiment as exp
        import crdd.sim as sim

        calls = {"decode": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (exp, sim):
            monkeypatch.setattr(mod, "decode_probabilities",
                                counted("decode", mod.decode_probabilities))
        monkeypatch.setattr(exp, "product_state", counted("encode", exp.product_state))
        plan = default_plan()
        res = run_experiment(plan)
        assert not res.failures
        assert calls["decode"] == 0
        states = prepare_states(4, plan.count_type1, plan.count_type2, plan.states_seed)
        assert calls["encode"] == len(plan.embeddings) * len(states) == 20


class TestFitsAndSummary:
    def test_fit_dataset_groups_by_embedding(self):
        plan = tiny_plan(target_pulses=64, max_points=16)
        res = run_experiment(plan)
        fits = fit_dataset(res.row_dicts())
        assert {f.method for f in fits} == {"SIM-XY4-2", "CR-XY4"}
        assert all(f.embedding_id == "0-1" for f in fits)

    def test_summarize_single_embedding(self):
        fits = [FitRow("SIM-XY4-2", "0-1", 1, 0.5, 0, 2.0, 0, "ok"),
                FitRow("CR-XY4", "0-1", 1, 0.05, 0, 20.0, 0, "ok"),
                FitRow("IDLE", "0-1", 1, 1.0, 0, 1.0, 0, "ok")]
        table = summarize(fits)
        row = [r for r in table.rows if r[1] == "XY4"][0]
        assert row[2] == 2.0 and row[3] == 0.0
        assert row[4] == 20.0
        assert row[6] == pytest.approx(2.0)   # SIM / IDLE
        assert row[7] == pytest.approx(10.0)  # CR / SIM

    def test_ratio_reads_the_named_column_only(self):
        fits = [FitRow("SIM-XY4-2", "0-1", 1, 0.5, 0, 2.0, 0, "ok"),
                FitRow("CR-XY4", "0-1", 1, 0.05, 0, 20.0, 0, "ok"),
                FitRow("IDLE", "0-1", 1, 1.0, 0, 1.0, 0, "ok")]
        table = summarize(fits)
        assert table.ratio("XY4", "sim_over_idle") == pytest.approx(2.0)
        assert table.ratio("XY4", "cr_over_sim") == pytest.approx(10.0)
        for column in ("cr_over_idle", "sim_over_Idle", ""):
            with pytest.raises(ValueError, match="column"):
                table.ratio("XY4", column)

    def test_mean_by_duration(self):
        rows = [{"duration_s": d, "p0": p}
                for d, p in ((2.0, 0.5), (1.0, 1.0), (2.0, 0.25), (1.0, 0.5), (3.0, 0.0))]
        assert mean_by_duration(rows) == ([1.0, 2.0, 3.0], [0.75, 0.375, 0.0])
        assert mean_by_duration([]) == ([], [])

    def test_summarize_exact_medians(self):
        fits = [FitRow("SIM-XY4", f"e{i}", 1, 1, 0, tau, 0, "ok")
                for i, tau in enumerate([1.0, 3.0, 2.0])]
        table = summarize(fits)
        row = table.rows[0]
        assert row[2] == 2.0
        assert row[3] == 1.0  # IQR of {1,2,3}

    def test_idle_better_of_two(self):
        fits = [FitRow("IDLE", "e0", 1, 1, 0, 1.0, 0, "ok"),
                FitRow("idle", "e0", 1, 1, 0, 4.0, 0, "ok"),
                FitRow("SIM-XY4", "e0", 1, 1, 0, 8.0, 0, "ok")]
        table = summarize(fits)
        idle_row = [r for r in table.rows if r[1] == "IDLE"][0]
        assert idle_row[2] == 4.0
        xy4 = [r for r in table.rows if r[1] == "XY4"][0]
        assert xy4[6] == pytest.approx(2.0)

    def test_summarize_keeps_embedding_sizes_apart(self):
        fits = [FitRow("SIM-XY4", "0-1-2-3", 1, 1, 0, 8.0, 0, "ok"),
                FitRow("SIM-XY4", "0-1", 1, 1, 0, 2.0, 0, "ok"),
                FitRow("IDLE", "0-1", 1, 1, 0, 1.0, 0, "ok")]
        rows = [(r[0], r[1], r[2], r[6]) for r in summarize(fits).rows]
        assert rows == [(2, "IDLE", 1.0, None), (2, "XY4", 2.0, 2.0), (4, "XY4", 8.0, None)]

    def test_summary_csv(self, tmp_path):
        fits = [FitRow("SIM-XY4", "e0", 1, 1, 0, 2.0, 0, "ok")]
        path = tmp_path / "summary.csv"
        summarize(fits).to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("n,method,sim_median_tau_s,sim_iqr_s,cr_median_tau_s,"
                          "cr_iqr_s,sim_over_idle,cr_over_sim")


class TestCsvLabels:
    # one label per grammar form: IDLE, SIM-X, SIM-X-k, CR-X, CR-X-kS|A,
    # CR-(X,Y), CR-(X,Y)-kS|A
    LABELS = ("IDLE", "SIM-XY4", "SIM-UR10-8", "CR-KDD", "CR-XY4-2S", "CR-XY4-4A",
              "CR-(XY4,UR12)", "CR-(XY4,UR12)-2A")

    def test_roundtrip_results_fits_summary(self, tmp_path):
        records = [SurvivalRecord(label, "0-1", "type1_+z", [
            SurvivalPoint(d * 1e-6, 4 * d, 100, z, z / 100)
            for d, z in zip(range(1, 7), (95, 88, 80, 74, 70, 66))])
            for label in self.LABELS]
        result = ExperimentResult(None, records, [])
        results = tmp_path / "results.csv"
        write_results_csv(result, results)
        rows = read_results_csv(results)
        assert rows == result.row_dicts()

        fits = fit_dataset(rows)
        assert {f.method for f in fits} == set(self.LABELS)
        path = tmp_path / "fits.csv"
        write_fits_csv(fits, path)
        assert read_fits_csv(path) == fits

        summary = tmp_path / "summary.csv"
        summarize(fits).to_csv(summary)
        with open(summary, newline="") as fh:
            table = list(csv.reader(fh))
        assert all(len(row) == 8 for row in table)
        bases = {"IDLE"} | {parse_method(m).base_name() for m in self.LABELS[1:]}
        assert {row[1] for row in table[1:]} == bases
        assert '"CR-(XY4,UR12)-2A"' in results.read_text()
        assert '2,"(XY4,UR12)",' in summary.read_text()


class TestPlanJson:
    def test_roundtrip(self):
        plan = default_plan()
        again = ExperimentPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()

    def test_comparison_returns_a_bool(self):
        plan = default_plan()
        assert plan == plan
        assert isinstance(plan == ExperimentPlan.from_dict(plan.to_dict()), bool)

    def test_validates_embeddings(self):
        dev = DeviceModel.default(n=2)
        with pytest.raises(ValueError):
            ExperimentPlan(device=dev, embeddings=((0, 7),), methods=("IDLE",),
                           target_pulses=8, shots=10, seed=0)

    @pytest.mark.parametrize("emb", [(0.7, 1.2), (0.0, 1.0), (True, 1), ("0", 1)])
    def test_non_integer_vertices_refused(self, emb):
        # int() would run (0.7, 1.2) on vertices (0, 1)
        with pytest.raises(ValueError, match="embedding vertices must be integers"):
            tiny_plan(embeddings=(emb,))

    def test_numpy_integer_vertices_stored_as_int(self):
        plan = tiny_plan(embeddings=((np.int64(1), np.int32(0)),))
        assert plan.embeddings == ((1, 0),)
        assert all(type(v) is int for v in plan.embeddings[0])

    @pytest.mark.parametrize("spacing", ["cubic", "LOG2", None])
    def test_unknown_spacing_refused(self, spacing):
        # refused when the plan is built, not when the run starts
        with pytest.raises(ValueError, match="spacing must be one of"):
            tiny_plan(spacing=spacing)

    def test_required_keys_alone_give_every_default(self):
        doc = {key: value for key, value in tiny_plan().to_dict().items()
               if key in ("device", "embeddings", "methods", "target_pulses", "shots", "seed")}
        plan = ExperimentPlan.from_dict(doc)
        defaults = {f.name: f.default if f.default_factory is dataclasses.MISSING
                    else f.default_factory() for f in dataclasses.fields(ExperimentPlan)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING}
        assert len(defaults) == 7
        assert {name: getattr(plan, name) for name in defaults} == defaults

    @pytest.mark.parametrize("embeddings, repeat", [
        (((0, 1), (0, 1)), "(0, 1)"), (((0, 1, 2), (1, 2), (0, 1, 2)), "(0, 1, 2)")])
    def test_repeated_embedding_refused(self, embeddings, repeat):
        # its cells would be written twice, with other shot draws
        with pytest.raises(ValueError, match=re.escape(f"embedding {repeat} appears more than")):
            tiny_plan(device=DeviceModel.default(n=3), embeddings=embeddings)

    @pytest.mark.parametrize("methods, label", [
        (("IDLE", "idle", "CR-XY4"), "IDLE"), (("SIM-XY4-2", "CR-XY4", " SIM-XY4-2"), "SIM-XY4-2")])
    def test_repeated_method_refused(self, methods, label):
        # methods compare by parsed label, as their rows are written
        with pytest.raises(ValueError, match=f"method {label} appears more than once"):
            tiny_plan(device=DeviceModel.default(n=3), embeddings=((0, 1, 2),), methods=methods)

    @pytest.mark.parametrize("name, value, message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("states_seed", 1.5, "states_seed must be an integer >= 0, got 1.5"),
        ("states_seed", -1, "states_seed must be an integer >= 0, got -1")])
    def test_seeds_must_be_integers(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            tiny_plan(**{name: value})

    def test_negative_seed_accepted(self):
        assert tiny_plan(seed=-1).seed == -1

    @pytest.mark.parametrize("embs", [(), ((),), ((0, 1), ())])
    def test_empty_embeddings_refused(self, embs):
        # nothing would run: the results file would hold its header alone
        with pytest.raises(ValueError, match="at least one embedding"):
            tiny_plan(embeddings=embs)
