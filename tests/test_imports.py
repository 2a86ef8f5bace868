"""The package's import surface and its dependencies.  Every exported name
resolves, and no command loads scipy: the contour and identity suites sum
closed-form series and exact sums in numpy and the standard library, and
build no node rule.  scipy is only a reference for the tests, in the test
extra with the other third-party modules the tests import, and the package
loads no numpy.polynomial module either.

These cases run in a fresh interpreter, since this test process has scipy
loaded already."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pqnorm

SRC = str(Path(pqnorm.__file__).resolve().parents[1])

_REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def modules_after(code: str, package: str = "scipy") -> list:
    """The modules of ``package`` loaded after ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code + "\n" + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return [m for m in json.loads(done.stdout.splitlines()[-1])
            if m == package or m.startswith(package + ".")]


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here,
    # not in a user's `from pqnorm import *`
    assert [name for name in pqnorm.__all__ if not hasattr(pqnorm, name)] == []


@pytest.mark.parametrize("module", ["pqnorm", "pqnorm.cli"])
def test_import_loads_no_scipy(module):
    assert modules_after(f"import {module}") == []


def test_cli_import_loads_no_numpy_polynomial():
    # the Hermite check sums integer Hermite coefficients and needs no
    # polynomial classes, which take about 3 ms to import
    assert modules_after("from pqnorm import cli", "numpy.polynomial") == []


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
    assert modules_after(code) == []


@pytest.mark.parametrize("suite", ["contours", "identities", "all"])
def test_verify_suites_load_no_scipy(suite, tmp_path):
    # the contour suite sums hypergeometric series, and the identity suite
    # a tanh-sinh rule with closed-form nodes and exact Hermite sums
    argv = ["verify", suite, "--out", str(tmp_path / "out.txt")]
    code = f"from pqnorm.cli import main\nassert main({argv!r}) == 0"
    assert modules_after(code) == []


def pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(path.read_text())["project"]


def distribution(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group()


def test_numpy_is_the_only_dependency():
    assert [distribution(r) for r in pyproject()["dependencies"]] == ["numpy"]


def test_test_extra_covers_every_third_party_import():
    project = pyproject()
    listed = {distribution(r) for r in project["dependencies"]
              + project["optional-dependencies"]["test"]}
    tests = Path(__file__).resolve().parent
    local = {p.stem for p in tests.glob("*.py")} | {"pqnorm"}
    imported = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"hypothesis", "mpmath", "pytest", "scipy"} <= third_party
    assert sorted(third_party - listed) == []
