import json

import pytest

from crdd.cli import main
from crdd.experiment import ExperimentPlan, read_fits_csv
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

    def test_fit_constant_data_degenerate(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        lines = ["method,embedding_id,state_id,duration_s,pulses,shots,zeros,p0"]
        for i, d in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
            lines.append(f"IDLE,0-1,type1_+z,{d},0,100,30,0.3")
        results.write_text("\n".join(lines) + "\n")
        fits = tmp_path / "fits.csv"
        assert run("fit", "--in", str(results), "--out", str(fits)) == 0
        assert "degenerate" in fits.read_text()

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

    def test_schema_roundtrip_stagger_analyze(self, tmp_path):
        sched = tmp_path / "s.json"
        run("seq", "stagger", "--red", "xy4", "--blue", "ur12", "--tau-p", "1.0",
            "--out", str(sched))
        out = tmp_path / "chi.csv"
        assert run("analyze", "chi", "--schedule", str(sched), "--samples", "64",
                   "--out", str(out)) == 0
