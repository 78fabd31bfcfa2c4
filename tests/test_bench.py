import importlib.util
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def bench():
    spec = importlib.util.spec_from_file_location(
        "crdd_bench", os.path.join(ROOT, "benchmarks", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_pytest(monkeypatch, bench, returncode, stdout):
    """Replace ``subprocess.run`` with one that returns the given result;
    returns the list of keyword arguments of each call."""
    calls = []

    def run(argv, **kw):
        calls.append(kw)
        return types.SimpleNamespace(returncode=returncode, stdout=stdout)

    monkeypatch.setattr(bench, "subprocess", types.SimpleNamespace(run=run))
    return calls


@pytest.mark.parametrize("returncode, stdout, passed, failed", [
    (0, "....\n4 passed in 1.00s\n", 4, 0),
    (1, "..F\n1 failed, 2 passed, 1 error in 1.00s\n", 2, 2),
], ids=["all-passed", "some-failed"])
def test_tier1_reads_the_counts(monkeypatch, bench, returncode, stdout, passed, failed):
    fake_pytest(monkeypatch, bench, returncode, stdout)
    result = bench.tier1()
    assert (result["passed"], result["failed"]) == (passed, failed)


@pytest.mark.parametrize("returncode, stdout", [
    (2, "!!! Interrupted: 1 error during collection !!!\n1 error in 0.10s\n"),
    (4, "ERROR: usage: unrecognized arguments\n"),
    (5, "no tests ran in 0.01s\n"),
    (1, "internal crash with no summary\n"),
    (0, ""),
], ids=["interrupted", "usage-error", "none-collected", "no-summary", "no-output"])
def test_tier1_refuses_a_run_it_cannot_read(monkeypatch, bench, returncode, stdout):
    fake_pytest(monkeypatch, bench, returncode, stdout)
    with pytest.raises(RuntimeError, match=f"pytest exited {returncode}"):
        bench.tier1()


@pytest.mark.parametrize("caller, want", [
    (None, "src"), ("", "src"), ("lib/extra", "src" + os.pathsep + "lib/extra"),
], ids=["unset", "empty", "set"])
def test_tier1_keeps_the_callers_path_after_src(monkeypatch, bench, caller, want):
    if caller is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", caller)
    calls = fake_pytest(monkeypatch, bench, 0, "1 passed in 0.01s\n")
    bench.tier1()
    assert [kw["env"]["PYTHONPATH"] for kw in calls] == [want]
