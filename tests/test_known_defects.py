"""The register of known defects.  Each case asserts the correct outcome
under a strict xfail, so a fix shows up as an XPASS, and the PR that fixes
it turns the case into an ordinary test.  The ROADMAP item behind each is
named in its reason."""

import numpy as np
import pytest

from pqnorm.cli import main


def defect(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@defect("item 22: rows scaled by 1e-200 stop the dual solver short of feasibility")
@pytest.mark.parametrize("p,q", [("inf", "1"), ("3", "1.5")])
def test_factorize_mixed_scale_rows(p, q, tmp_path, capsys):
    # `round` exits 0 on the same file
    A = np.random.default_rng(3).standard_normal((30, 20))
    A[:10] *= 1e-200
    path = tmp_path / "A.csv"
    np.savetxt(path, A, delimiter=",", fmt="%.17g")
    assert main(["factorize", "--in", str(path), "--p", p, "--q", q]) == 0
