import os
import subprocess
import sys

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
