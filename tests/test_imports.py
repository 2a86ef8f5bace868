"""The package's import surface.  Every exported name resolves, and scipy
stays off the import path: only the contour and identity suites need it,
for the Gauss-Jacobi nodes of scipy.special, and loading it costs more than
most commands take to run.  Neither loads scipy.integrate.

The scipy cases run in a fresh interpreter, since this test process has
scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqnorm

SRC = str(Path(pqnorm.__file__).resolve().parents[1])

_REPORT = ("import json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n")


def scipy_modules_after(code: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code + "\n" + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here,
    # not in a user's `from pqnorm import *`
    assert [name for name in pqnorm.__all__ if not hasattr(pqnorm, name)] == []


@pytest.mark.parametrize("module", ["pqnorm", "pqnorm.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == []


@pytest.mark.parametrize("argv", [
    ["round", "--samples", "100", "--in"],
    ["factorize", "--in"],
    ["bounds", "--p", "4"],
    ["verify", "conditions", "--grid", "5"],
], ids=["round", "factorize", "bounds", "verify-conditions"])
def test_command_loads_no_scipy(argv, tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1,2\n3,-1\n")
    argv = argv + ([str(matrix)] if argv[-1] == "--in" else []) + [
        "--out", str(tmp_path / "out.txt")]
    code = f"from pqnorm.cli import main\nassert main({argv!r}) == 0"
    assert scipy_modules_after(code) == []


def test_contour_rule_loads_scipy_on_call():
    # the check above can see scipy: the Gauss-Jacobi nodes import it when called
    code = "from pqnorm import specfun\nspecfun.euler_continuation(0.5, 0.2, 0.3)"
    assert "scipy.special" in scipy_modules_after(code)


@pytest.mark.parametrize("suite", ["contours", "identities"])
def test_contours_load_no_scipy_integrate(suite, tmp_path):
    # the points next to the branch point take the graded Gauss rule, and the
    # identities take Gauss-Jacobi and Gauss-Laguerre rules, so both suites
    # need scipy.special's Gauss nodes and no adaptive quadrature
    argv = ["verify", suite, "--out", str(tmp_path / "out.txt")]
    code = f"from pqnorm.cli import main\nassert main({argv!r}) == 0"
    loaded = scipy_modules_after(code)
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith("scipy.integrate")] == []
