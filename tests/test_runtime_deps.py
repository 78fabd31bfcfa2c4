import ast
import functools
import importlib
import importlib.util
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import crdd


def test_import_loads_no_scipy():
    # a fresh interpreter, pointed at the crdd under test, so the check does
    # not depend on what this test session has already imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(crdd.__file__)))
    code = ("import crdd, sys; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_test_imports_are_installed_by_the_test_extra():
    # ``pip install -e ".[test]"`` must bring every third-party module a test
    # imports, as a runtime dependency or in the extra (each is imported
    # under its distribution's name)
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
              for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    tests = os.path.join(root, "tests")
    files = [name for name in os.listdir(tests) if name.endswith(".py")]
    imported = set()
    for name in files:
        with open(os.path.join(tests, name)) as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    local = {"crdd"} | {name[:-3] for name in files}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"hypothesis", "numpy", "pytest", "scipy"} <= third_party
    assert sorted(third_party - listed) == []


# ``import crdd`` itself is checked at the top of this file and, in a fresh
# interpreter, by test_import_loads_no_scipy
@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(crdd.__path__)))
def test_all_names_resolve(module):
    # a stale export left behind by a removal fails here
    mod = importlib.import_module(f"crdd.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_wrap_targets_resolve():
    # the benchmark wraps crdd attributes by name (dotted for class
    # attributes); a wrapped target that is renamed or removed silently drops
    # its metrics, so every one must still resolve to a callable
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(root, "perfbench", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module, attr, _, _ in layers.WRAPS:
        target = functools.reduce(lambda obj, part: getattr(obj, part, None),
                                  attr.split("."), importlib.import_module(module))
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert layers.WRAPS and missing == []


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_benchmark_positional_reads_match_signatures():
    # the benchmark's callbacks read some wrapped calls' arguments by
    # position; a renamed or reordered parameter would crash a traced run
    from crdd import _kernels, experiment, sequences, sim
    assert _params(_kernels.rk4_evolve)[:6] == ["psi", "ax", "ay", "diag", "h", "reps"]
    assert _params(_kernels.su2_chain)[0] == "cx"
    assert _params(sequences.envelope_amplitude)[3] == "t"
    assert _params(sim.cycle_propagator)[1] == "schedules"
    assert _params(experiment.cycle_propagator)[1] == "schedules"


def test_factored_path_stays_observable(monkeypatch):
    # the benchmark counts envelope samples at sim's and control's
    # ``envelope_amplitude`` and SU(2) steps as ``len(cx)`` of each
    # ``su2_chain`` call: the factored sim path must sample through the
    # former and pass the latter a 1-D ``cx``
    from crdd import _kernels, control, sequences, sim
    dev = sim.DeviceModel.default(n=4)
    drag = sequences.PulseShape.gaussian_drag()
    sched = sequences.cr_dd("XY4", tau_p=dev.tau_p, shape=drag)
    seqs = [sched.red if c == "R" else sched.blue for c in dev.graph.coloring]
    sequences.envelope_amplitude(drag, math.pi, 1.0, 0.5)  # fills the calibration cache
    wrapped, drawn, cx_ndims = [0], [0], []

    def counting(fn):
        def inner(*args):
            wrapped[0] += np.size(args[3])  # ``t``, as the benchmark reads it
            return fn(*args)
        return inner

    for module in (sim, control):
        monkeypatch.setattr(module, "envelope_amplitude", counting(module.envelope_amplitude))
    envelope = sequences._drag_complex_envelope

    def drawing(theta, tau_p, sigma, beta, scale, detuning, t):
        drawn[0] += np.size(t)
        return envelope(theta, tau_p, sigma, beta, scale, detuning, t)

    monkeypatch.setattr(sequences, "_drag_complex_envelope", drawing)
    chain = _kernels.su2_chain

    def recording(cx, *args):
        cx_ndims.append(np.ndim(cx))
        return chain(cx, *args)

    monkeypatch.setattr(_kernels, "su2_chain", recording)
    sim.cycle_propagator(dev, seqs)
    assert drawn[0] > 0 and wrapped[0] == drawn[0]
    assert cx_ndims and set(cx_ndims) == {1}
