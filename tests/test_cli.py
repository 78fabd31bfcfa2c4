import argparse
import json
import pathlib

import pytest

from crdd import cli
from crdd.cli import main
from crdd.experiment import ExperimentPlan, read_fits_csv
from crdd.sequences import ColoredSchedule, PulseShape, Segment, Sequence, cr_dd, named_phases
from crdd.sim import DeviceModel


def run(*args):
    return main(list(args))


@pytest.fixture()
def seq_json(tmp_path):
    path = tmp_path / "xy4.json"
    assert run("seq", "build", "--name", "xy4", "--tau-p", "5.69e-8",
               "--out", str(path)) == 0
    return path


@pytest.fixture()
def sched_json(tmp_path):
    path = tmp_path / "cr_xy4.json"
    assert run("seq", "stagger", "--red", "xy4", "--tau-p", "1.0",
               "--out", str(path)) == 0
    return path


def tiny_plan_json(tmp_path, methods=("SIM-XY4-2", "CR-XY4"), target_pulses=16):
    plan = ExperimentPlan(
        device=DeviceModel.default(n=2, seed=5), embeddings=((0, 1),),
        methods=methods, target_pulses=target_pulses, shots=40, seed=1,
        count_type1=1, count_type2=1, samples_per_pulse=64, max_points=4)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    return path


class TestSeqVerbs:
    def test_build_xy4_with_hardware_tau_p(self, seq_json):
        doc = json.loads(seq_json.read_text())
        pulses = [s for s in doc["slots"] if s["kind"] == "pulse"]
        assert len(pulses) == 4
        assert doc["tau_p_s"] == 5.69e-8

    def test_overwrite_guard(self, tmp_path, seq_json):
        code = run("seq", "build", "--name", "xy4", "--tau-p", "1.0",
                   "--out", str(seq_json))
        assert code == 2
        assert run("seq", "build", "--name", "xy4", "--tau-p", "1.0",
                   "--out", str(seq_json), "--force") == 0

    def test_unknown_catalog_name(self, tmp_path):
        code = run("seq", "build", "--name", "udd", "--tau-p", "1.0",
                   "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_pad_roundtrip(self, tmp_path, sched_json):
        out = tmp_path / "padded.json"
        assert run("seq", "pad", "--schedule", str(sched_json), "--k", "2",
                   "--mode", "symmetric", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        red_total = sum(s["duration_s"] for s in doc["red"]["slots"])
        assert red_total == pytest.approx(16.0)

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_pad_k_below_one_names_the_flag(self, tmp_path, sched_json, capsys, k):
        out = tmp_path / "padded.json"
        assert run("seq", "pad", "--schedule", str(sched_json), "--k", k,
                   "--out", str(out)) == 2
        assert "--k must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_stagger_k_below_one_names_the_flag(self, tmp_path, capsys, k):
        out = tmp_path / "cr.json"
        assert run("seq", "stagger", "--red", "xy4", "--tau-p", "1.0", "--k", k,
                   "--out", str(out)) == 2
        assert "--k must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau_p", ["-1.0", "0", "nan", "inf"])
    @pytest.mark.parametrize("shape", ["ideal", "square", "gaussian", "gaussian-drag"])
    @pytest.mark.parametrize("verb", [("seq", "build", "--name"), ("seq", "stagger", "--red")])
    def test_unusable_tau_p_names_the_flag(self, tmp_path, capsys, verb, shape, tau_p):
        out = tmp_path / "x.json"
        assert run(*verb, "xy4", "--tau-p", tau_p, "--shape", shape, "--out", str(out)) == 2
        assert "--tau-p must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("shape", ["square", "ideal"])
    def test_pad_k_matches_stagger_k(self, tmp_path, shape, mode):
        # tau_d is (k - 1) times the pulse width, which an ideal pulse's slot keeps
        base, padded = tmp_path / "base.json", tmp_path / "padded.json"
        assert run("seq", "stagger", "--red", "xy4", "--tau-p", "5.69e-8", "--shape", shape,
                   "--out", str(base)) == 0
        assert run("seq", "pad", "--schedule", str(base), "--k", "3", "--mode", mode,
                   "--out", str(padded)) == 0
        direct = cr_dd("XY4", tau_p=5.69e-8, shape=PulseShape(shape), k=3, mode=mode)
        assert json.loads(padded.read_text()) == direct.to_dict()


class TestAnalyzeVerbs:
    def test_trace_roundtrip(self, tmp_path, sched_json):
        out = tmp_path / "trace.csv"
        assert run("analyze", "trace", "--schedule", str(sched_json),
                   "--color", "blue", "--samples", "64", "--out", str(out)) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("t_s,R_XX")

    def test_chi_csv(self, tmp_path, sched_json):
        out = tmp_path / "chi.csv"
        assert run("analyze", "chi", "--schedule", str(sched_json),
                   "--samples", "64", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,alpha,beta,value_s,pass"
        assert len(lines) == 1 + 27

    def test_symmetry_csv(self, tmp_path, sched_json):
        out = tmp_path / "sym.csv"
        assert run("analyze", "symmetry", "--schedule", str(sched_json),
                   "--samples", "64", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,alpha,relation,residual,flag"
        assert len(lines) == 1 + 36

    def test_verify_pass(self, tmp_path, sched_json, capsys):
        out = tmp_path / "chi.csv"
        assert run("verify", "--schedule", str(sched_json), "--samples", "256",
                   "--tol", "1e-8", "--out", str(out)) == 0
        assert "PASS" in capsys.readouterr().out
        assert out.exists()

    def test_verify_ideal_stagger(self, tmp_path, capsys):
        sched = tmp_path / "ideal.json"
        assert run("seq", "stagger", "--red", "xy4", "--tau-p", "1.0", "--shape", "ideal",
                   "--out", str(sched)) == 0
        assert run("verify", "--schedule", str(sched), "--samples", "32") == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_duration_ideal_schedule_reads_as_before(self, tmp_path, capsys):
        # the bang-bang layout of instants in unit stagger slots: it reads,
        # its colors turn together, and pad refuses it as no pulse-slot stagger
        ideal = PulseShape.ideal()
        red = Sequence([seg for ph in named_phases("XY4")
                        for seg in (Segment.delay(1.0), Segment.for_pulse(ph, 0.0, ideal))])
        blue = Sequence([seg for ph in named_phases("XY4")
                         for seg in (Segment.for_pulse(ph, 0.0, ideal), Segment.delay(1.0))])
        path = tmp_path / "bang_bang.json"
        path.write_text(ColoredSchedule(red, blue).to_json())
        assert ColoredSchedule.from_json(path.read_text()) == ColoredSchedule(red, blue)
        assert run("verify", "--schedule", str(path), "--samples", "32") == 0
        assert "FAIL (max |chi2|/tau_c = 1.000e+00)" in capsys.readouterr().out
        for k in ("1", "2"):
            out = tmp_path / f"padded{k}.json"
            assert run("seq", "pad", "--schedule", str(path), "--k", k, "--out", str(out)) == 2
            assert "not an unpadded staggered schedule" in capsys.readouterr().err
            assert not out.exists()

    def test_verify_rejects_non_finite_phase(self, tmp_path, seq_json, capsys):
        doc = json.loads(seq_json.read_text())
        next(s for s in doc["slots"] if s["kind"] == "pulse")["phase_rad"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", "--sequence", str(bad)) == 2
        captured = capsys.readouterr()
        assert "phase must be finite" in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("verb", [("verify",), ("analyze", "symmetry")],
                             ids=["verify", "analyze_symmetry"])
    def test_unusable_tolerance_exits_2(self, tmp_path, sched_json, capsys, verb, tol):
        out = tmp_path / "out.csv"
        assert run(*verb, "--schedule", str(sched_json), "--samples", "64",
                   "--tol", tol, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "tol must be finite and > 0" in captured.err
        assert "FAIL" not in captured.out
        assert not out.exists()

    def test_verify_fail_on_sim(self, tmp_path, seq_json, capsys):
        # catalog sequence applied simultaneously has unsuppressed ZZ entries
        assert run("verify", "--sequence", str(seq_json), "--samples", "64") == 0
        assert "FAIL" in capsys.readouterr().out


class TestSimFitSummarizeReport:
    def test_full_chain(self, tmp_path, capsys):
        plan = tiny_plan_json(tmp_path)
        results = tmp_path / "results.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 0
        fits = tmp_path / "fits.csv"
        assert run("fit", "--in", str(results), "--out", str(fits)) == 0
        summary = tmp_path / "summary.csv"
        assert run("summarize", "--fits", str(fits), "--out", str(summary)) == 0
        assert summary.read_text().count("\n") >= 2
        plots = tmp_path / "plots"
        assert run("report", "--results", str(results), "--fits", str(fits),
                   "--out-dir", str(plots)) == 0
        assert (plots / "survival.svg").exists()
        assert (plots / "tau_gamma_box.svg").exists()

    def test_comma_label_chain(self, tmp_path):
        plan = tiny_plan_json(tmp_path, methods=("SIM-XY4-2", "CR-(XY4,UR12)"),
                              target_pulses=48)
        results, fits = tmp_path / "results.csv", tmp_path / "fits.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 0
        assert run("fit", "--in", str(results), "--out", str(fits)) == 0
        assert run("summarize", "--fits", str(fits),
                   "--out", str(tmp_path / "summary.csv")) == 0
        assert run("report", "--results", str(results), "--fits", str(fits),
                   "--out-dir", str(tmp_path / "plots")) == 0

    def test_report_with_no_finite_tau(self, tmp_path):
        # neither CR method decays inside the sampled window, so every fitted
        # tau_gamma is inf; the box plot is still drawn
        plan = tiny_plan_json(tmp_path, methods=("CR-XY4", "CR-(XY4,UR12)"),
                              target_pulses=48)
        results, fits = tmp_path / "results.csv", tmp_path / "fits.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 0
        assert run("fit", "--in", str(results), "--out", str(fits)) == 0
        assert all(f.tau_gamma == float("inf") for f in read_fits_csv(fits))
        plots = tmp_path / "plots"
        assert run("report", "--results", str(results), "--fits", str(fits),
                   "--out-dir", str(plots)) == 0
        assert (plots / "survival.svg").read_text().startswith("<svg")
        box = (plots / "tau_gamma_box.svg").read_text()
        assert ">CR-XY4</text>" in box and ">CR-(XY4,UR12)</text>" in box

    def test_sim_run_deterministic(self, tmp_path):
        plan = tiny_plan_json(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("sim", "run", "--plan", str(plan), "--seed", "7", "--out", str(a))
        run("sim", "run", "--plan", str(plan), "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path):
        plan = tiny_plan_json(tmp_path)
        assert run("sim", "run", "--plan", str(plan),
                   "--out", str(tmp_path / "r.csv")) == 2

    @pytest.mark.parametrize("field,value", [
        ("shots", 0), ("samples_per_pulse", 8), ("target_pulses", 0), ("shots", "40"),
        ("shots", 40.5), ("shots", 40.0), ("shots", True), ("shots", float("inf")), ("target_pulses", 48.5),
        ("samples_per_pulse", 256.0), ("max_points", 0), ("states.type1", -1),
        ("states.type1", 7), ("states.type2", -1)])
    def test_plan_that_cannot_run_exits_2(self, tmp_path, capsys, field, value):
        plan = tiny_plan_json(tmp_path)
        doc = json.loads(plan.read_text())
        section, _, key = field.rpartition(".")
        (doc[section] if section else doc)[key] = value
        plan.write_text(json.dumps(doc))
        results = tmp_path / "r.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 2
        name = {"states.type1": "count_type1", "states.type2": "count_type2"}.get(field, field)
        assert f"{name} must be an integer >=" in capsys.readouterr().err
        assert not results.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("states.seed", 1.5, "states_seed must be an integer >= 0, got 1.5"),
        ("states.seed", -1, "states_seed must be an integer >= 0, got -1")])
    def test_plan_seed_not_an_integer_exits_2(self, tmp_path, capsys, field, value, message):
        # --seed replaces the plan's seed, but the plan must still be valid
        plan = tiny_plan_json(tmp_path)
        doc = json.loads(plan.read_text())
        section, _, key = field.rpartition(".")
        (doc[section] if section else doc)[key] = value
        plan.write_text(json.dumps(doc))
        results = tmp_path / "r.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 2
        assert message in capsys.readouterr().err
        assert not results.exists()

    def test_repeated_device_edge_exits_2(self, tmp_path, capsys):
        plan = tiny_plan_json(tmp_path)
        doc = json.loads(plan.read_text())
        doc["device"]["graph"]["edges"] = [[0, 1], [1, 0]]
        doc["device"]["zz_rad_per_s"] = [1.0, 2.0]
        plan.write_text(json.dumps(doc))
        results = tmp_path / "r.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 2
        assert "edge (0,1) appears more than once" in capsys.readouterr().err
        assert not results.exists()

    def test_fit_constant_data_degenerate(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        lines = ["method,embedding_id,state_id,duration_s,pulses,shots,zeros,p0"]
        for i, d in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
            lines.append(f"IDLE,0-1,type1_+z,{d},0,100,30,0.3")
        results.write_text("\n".join(lines) + "\n")
        fits = tmp_path / "fits.csv"
        assert run("fit", "--in", str(results), "--out", str(fits)) == 0
        assert "degenerate" in fits.read_text()

    def test_fit_names_the_trace_it_cannot_fit(self, tmp_path, capsys):
        # 8 target pulses leave each trace fewer than the 4 points a fit needs
        plan = tiny_plan_json(tmp_path, target_pulses=8)
        results, fits = tmp_path / "results.csv", tmp_path / "fits.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 0
        assert run("fit", "--in", str(results), "--out", str(fits)) == 2
        assert ("error: CR-XY4 on embedding 0-1: need at least 4 points"
                in capsys.readouterr().err)
        assert not fits.exists()

    @pytest.mark.parametrize("verb", ["fit", "report"])
    def test_short_results_row_exits_2(self, tmp_path, capsys, verb):
        results = tmp_path / "results.csv"
        lines = ["method,embedding_id,state_id,duration_s,pulses,shots,zeros,p0",
                 "IDLE,0-1,type1_+z,1.0,0,100,30,0.3", "IDLE,0-1,type1_+z,2.0"]
        results.write_text("\n".join(lines) + "\n")
        out = ["--out", str(tmp_path / "fits.csv")] if verb == "fit" else [
            "--out-dir", str(tmp_path / "plots")]
        assert run(verb, "--in" if verb == "fit" else "--results", str(results), *out) == 2
        assert f"{results}: line 3 has 4 fields, the header 8" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["fit", "report"])
    def test_missing_results_column_exits_2(self, tmp_path, capsys, verb):
        results = tmp_path / "results.csv"
        lines = ["method,embedding_id,state_id,duration_s,pulses,shots,zeros",
                 "IDLE,0-1,type1_+z,1.0,0,100,30"]
        results.write_text("\n".join(lines) + "\n")
        out = ["--out", str(tmp_path / "fits.csv")] if verb == "fit" else [
            "--out-dir", str(tmp_path / "plots")]
        assert run(verb, "--in" if verb == "fit" else "--results", str(results), *out) == 2
        assert f"{results}: missing column(s) p0" in capsys.readouterr().err

    def test_report_byte_identical(self, tmp_path):
        plan = tiny_plan_json(tmp_path)
        results = tmp_path / "results.csv"
        run("sim", "run", "--plan", str(plan), "--seed", "3", "--out", str(results))
        d1, d2 = tmp_path / "p1", tmp_path / "p2"
        run("report", "--results", str(results), "--out-dir", str(d1))
        run("report", "--results", str(results), "--out-dir", str(d2))
        assert (d1 / "survival.svg").read_bytes() == (d2 / "survival.svg").read_bytes()


class TestDispatch:
    def test_unknown_verb(self, capsys):
        assert run("frobnicate") == 64
        assert "usage" in capsys.readouterr().err

    def test_help(self, capsys):
        assert run() == 0
        assert "verbs" in capsys.readouterr().out

    def test_missing_flag_exits_2(self, capsys):
        assert run("seq", "build", "--name", "xy4") == 2

    @pytest.mark.parametrize("verb", ["analyze trace", "analyze chi", "analyze symmetry",
                                      "verify"])
    def test_target_flags_exclusive_and_required(self, tmp_path, seq_json, sched_json,
                                                 capsys, verb):
        out = tmp_path / "out.csv"
        both = ["--sequence", str(seq_json), "--schedule", str(sched_json)]
        assert run(*verb.split(), *both, "--samples", "64", "--out", str(out)) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert run(*verb.split(), "--samples", "64", "--out", str(out)) == 2
        assert "one of the arguments --sequence --schedule is required" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_float_vertices_exit_2(self, tmp_path, capsys):
        plan = tiny_plan_json(tmp_path)
        doc = json.loads(plan.read_text())
        doc["device"]["graph"]["edges"] = [[0.0, 1.0]]
        plan.write_text(json.dumps(doc))
        results = tmp_path / "r.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 2
        assert "must be integers, got 0.0" in capsys.readouterr().err
        assert not results.exists()

    @pytest.mark.parametrize("embeddings, message", [
        ([[0.7, 1.2]], "embedding vertices must be integers, got 0.7"),
        ([], "at least one embedding"),
        ([[]], "at least one embedding"),
    ])
    def test_unrunnable_embeddings_exit_2(self, tmp_path, capsys, embeddings, message):
        plan = tiny_plan_json(tmp_path)
        doc = json.loads(plan.read_text())
        doc["embeddings"] = embeddings
        plan.write_text(json.dumps(doc))
        results = tmp_path / "r.csv"
        assert run("sim", "run", "--plan", str(plan), "--seed", "1",
                   "--out", str(results)) == 2
        assert message in capsys.readouterr().err
        assert not results.exists()

    @pytest.mark.parametrize("verb", [("seq", "build", "--name", "xy4"),
                                      ("seq", "stagger", "--red", "xy4")])
    @pytest.mark.parametrize("shape, flags, refused", [
        ("square", ("--sigma", "1e-8", "--drag-coefficient", "0.3"), "--sigma"),
        ("ideal", ("--sigma", "1e-8"), "--sigma"),
        ("square", ("--drag-coefficient", "0.3"), "--drag-coefficient"),
        ("gaussian", ("--sigma", "1e-8", "--drag-coefficient", "0.3"), "--drag-coefficient"),
    ])
    def test_unused_shape_flags_exit_2(self, tmp_path, capsys, verb, shape, flags, refused):
        out = tmp_path / "x.json"
        assert run(*verb, "--tau-p", "5.69e-8", "--shape", shape, *flags,
                   "--out", str(out)) == 2
        assert f"{refused} does not apply to --shape {shape}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", [("seq", "build", "--name", "xy4"),
                                      ("seq", "stagger", "--red", "xy4")])
    def test_used_shape_flags_reach_the_file(self, tmp_path, verb):
        out = tmp_path / "x.json"
        assert run(*verb, "--tau-p", "5.69e-8", "--shape", "gaussian-drag", "--sigma", "1e-8",
                   "--drag-coefficient", "0.3", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        shape = (doc if "shape" in doc else doc["red"])["shape"]
        assert shape == {"kind": "gaussian_drag", "sigma_s": 1e-8, "drag_coefficient": 0.3}

    def test_schema_roundtrip_stagger_analyze(self, tmp_path):
        sched = tmp_path / "s.json"
        run("seq", "stagger", "--red", "xy4", "--blue", "ur12", "--tau-p", "1.0",
            "--out", str(sched))
        out = tmp_path / "chi.csv"
        assert run("analyze", "chi", "--schedule", str(sched), "--samples", "64",
                   "--out", str(out)) == 0


_FORCE = {"--force": (False, None, False)}
_OUT = {"--out": (None, None, True), **_FORCE}
_SHAPE = {"--shape": ("square", ["ideal", "square", "gaussian", "gaussian-drag"], False),
          "--sigma": (None, None, False), "--drag-coefficient": (None, None, False)}
_TARGET = {"--sequence": (None, None, False), "--schedule": (None, None, False),
           "--samples": (256, None, False)}
_COLOR = {"--color": ("red", ["red", "blue"], False)}
_MODE = {"--mode": ("symmetric", ["symmetric", "asymmetric"], False)}
# (default, choices, required) of every option of every verb
VERB_OPTIONS = {
    "seq build": {"--name": (None, None, True), "--tau-p": (None, None, True),
                  **_SHAPE, **_OUT},
    "seq stagger": {"--red": (None, None, True), "--blue": (None, None, False),
                    "--tau-p": (None, None, True), "--k": (1, None, False), **_MODE,
                    **_SHAPE, **_OUT},
    "seq pad": {"--schedule": (None, None, True), "--tau-d": (None, None, False),
                "--k": (None, None, False), **_MODE, **_OUT},
    "analyze trace": {**_TARGET, **_COLOR, **_OUT},
    "analyze chi": {**_TARGET, "--tol": (1e-8, None, False), **_OUT},
    "analyze symmetry": {**_TARGET, **_COLOR, "--tol": (1e-6, None, False), **_OUT},
    "verify": {**_TARGET, "--tol": (1e-8, None, False), "--out": (None, None, False),
               **_FORCE},
    "sim run": {"--plan": (None, None, True), "--seed": (None, None, True), **_OUT},
    "fit": {"--in": (None, None, True), **_OUT},
    "summarize": {"--fits": (None, None, True), **_OUT},
    "report": {"--results": (None, None, True), "--fits": (None, None, False),
               "--out-dir": (None, None, True), "--log-y": (False, None, False), **_FORCE},
}


def verb_parser(verb, monkeypatch):
    """The parser a verb builds, caught where it parses its arguments."""
    caught = []

    def catch(self, args=None, namespace=None):
        caught.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", catch)
    assert main(verb.split()) == 0
    return caught[0]


class TestVerbTable:
    def test_usage_lists_exactly_the_table(self):
        listed = [line[2:20].strip() for line in cli.USAGE.splitlines()
                  if line.startswith("  ")]
        assert listed == list(cli.VERBS) == list(VERB_OPTIONS)

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_every_verb_answers_help(self, verb, capsys):
        assert run(*verb.split(), "--help") == 0
        assert capsys.readouterr().out.startswith(f"usage: crdd {verb} ")

    @pytest.mark.parametrize("verb", list(VERB_OPTIONS))
    def test_verb_options_pinned(self, verb, monkeypatch):
        parser = verb_parser(verb, monkeypatch)
        options = {a.option_strings[0]: (a.default, a.choices, a.required)
                   for a in parser._actions if a.option_strings and a.dest != "help"}
        assert options == VERB_OPTIONS[verb]

    def test_console_script_resolves_to_main(self):
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["crdd"]
        module, _, name = target.partition(":")
        assert module == "crdd.cli" and getattr(cli, name) is main
