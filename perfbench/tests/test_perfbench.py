"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference()


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_same_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    runs = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / sub
        d.mkdir()
        inputs = wl.make_inputs(seed, str(d))
        runs.append((_files(d), {k: v for k, v in inputs.items()
                                 if not isinstance(v, str) or not v.startswith(str(d))}))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]


def test_perturbed_propagator_fails_check(ref):
    wl = workloads.WORKLOADS["survival-square"]
    stored = ref["arrays"]["square_propagators"]
    assert wl.propagator_errors(list(stored), ref) == []
    perturbed = [u.copy() for u in stored]
    perturbed[1][3, 5] += 1e-6
    errors = wl.propagator_errors(perturbed, ref)
    assert len(errors) == 1 and "differs from the reference" in errors[0]


def test_perturbed_probabilities_fail_check(ref):
    wl = workloads.WORKLOADS["statevector-n10"]
    inputs = {"pool_index": 3}
    probs = ref["arrays"]["statevector_probs"][3].copy()
    ok = workloads.PassResult(outputs={"probs": probs})
    assert wl.check_pass(inputs, None, ok, ref) == []
    probs[0] -= 1e-6
    assert wl.check_pass(inputs, None, ok, ref)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10]: a [1, 4], c [3.5, 4.5] (overlaps a), b [5, 9] with child g [6, 7]
    spans = [["root", 0.0, 10.0, -1, 1], ["a", 1.0, 4.0, 0, 1], ["c", 3.5, 4.5, 0, 1],
             ["b", 5.0, 9.0, 0, 1], ["g", 6.0, 7.0, 3, 1]]
    selfs = dict(zip((s[0] for s in spans), tracer.self_times(spans)))
    assert selfs == pytest.approx({"root": 10 - 3.5 - 4, "a": 3, "c": 1, "b": 3, "g": 1})
    assert tracer.span_totals(spans)["root"] == pytest.approx((10.0, 2.5, 1))
    assert tracer.nesting_excess(spans) == 0.0
    spans.append(["d", 0.0, 9.0, 0, 1])  # the children now outlast the root
    assert tracer.nesting_excess(spans) == pytest.approx(7.0)


def test_spans_record_parents_per_pass():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    tr.pass_id = "setup"
    with tr.span("setup"):
        pass
    tr.pass_id = 1
    with tr.span("pass"):
        with tr.span("child"):
            pass
    spans = tr.pass_spans(1)
    assert [(s[0], s[3]) for s in spans] == [("pass", -1), ("child", 0)]
    assert tracer.self_times(spans) == [2.0, 1.0]


def test_missing_target_reports_metric_absent(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.present_fn = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tr = tracer.Tracer()
    assert tr.wrap("fake_layer", "gone_fn", "fake.gone") is False
    assert tr.wrap("no_such_module_anywhere", "fn", "fake.none") is False
    assert tr.wrap("fake_layer", "present_fn", "fake.present",
                   lambda t, a, k, r: t.count("fake.calls")) is True
    assert fake.present_fn(1) == 2
    tr.unwrap_all()
    assert fake.present_fn(1) == 2
    assert [s[0] for s in tr.spans] == ["fake.present"]
    assert tr.counts[None]["fake.calls"] == 1
    assert tr.missing == {"fake_layer.gone_fn", "no_such_module_anywhere.fn"}

    every_target = {f"{m}.{a}" for m, a, _, _ in layers.WRAPS}
    assert layers.absent_metrics(every_target) == []
    absent = layers.absent_metrics(every_target - {"crdd._kernels.rk4_evolve"})
    assert absent == ["kernels.rk4_s", "kernels.rk4_steps", "kernels.rk4_column_steps"]


def test_method_keys_name_every_cycle_metric():
    labels = ("IDLE", "SIM-XY4-2", "CR-XY4[red]", "CR-(XY4,UR12)[blue]")
    assert tuple(layers.method_key(lbl) for lbl in labels) == layers.CYCLE_METHODS


def test_results_reader_rejoins_unquoted_labels(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("method,embedding_id,state_id,duration_s,pulses,shots,zeros,p0\n"
                    "CR-(XY4,UR12),0-1-2-3,type1_+x,1e-06,12,1000,990,0.99\n"
                    '"CR-(XY4,UR12)",0-1-2-3,type1_+x,1e-06,12,1000,990,0.99\n')
    _, rows = workloads.read_results(str(path))
    assert [r[0] for r in rows] == ["CR-(XY4,UR12)"] * 2
    assert rows[0] == rows[1]


def test_unitarity_defect():
    u = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0].astype(complex)
    assert workloads.unitarity_defect(u) < 1e-14
    assert workloads.unitarity_defect(2 * u) == pytest.approx(3.0)
    assert workloads.unitarity_defect(np.array([0.6, 0.8j])) < 1e-15
